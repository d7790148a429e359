(* Branchless-ish MSB search over the 63 value bits of an OCaml int. *)

let count_leading_zeros v =
  if v < 0 then invalid_arg "Bits.count_leading_zeros: negative";
  if v = 0 then 63
  else begin
    let n = ref 0 in
    let x = ref v in
    if !x lsr 31 = 0 then begin n := !n + 32; x := !x lsl 32 end;
    if !x lsr 47 = 0 then begin n := !n + 16; x := !x lsl 16 end;
    if !x lsr 55 = 0 then begin n := !n + 8; x := !x lsl 8 end;
    if !x lsr 59 = 0 then begin n := !n + 4; x := !x lsl 4 end;
    if !x lsr 61 = 0 then begin n := !n + 2; x := !x lsl 2 end;
    if !x lsr 62 = 0 then incr n;
    !n
  end

(* Two multiply-xorshift rounds: every input bit reaches the low bits,
   which power-of-two tables mask off. *)
let mix x =
  let x = (x lxor (x lsr 31)) * 0x3c6ef372fe94f82b in
  let x = (x lxor (x lsr 29)) * 0x1ce4e5b9bf58476d in
  x lxor (x lsr 32)
