type msg =
  | Grant of { epoch : int; lo : int; hi : int; next_duration : int }
  | Revoke of { epoch : int }
  | Revoke_ack of { epoch : int }

type rpc = (msg, unit) Net.Rpc.t
