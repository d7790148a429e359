(* Width of [n] in decimal, sign included.  Digits are taken from the
   non-positive [m] so that [min_int] needs no special case. *)
let width n =
  let rec go m w = if m > -10 then w else go (m / 10) (w + 1) in
  if n < 0 then go n 2 else go (-n) 1

let put_str b pos s =
  Bytes.unsafe_blit_string s 0 b pos (String.length s);
  pos + String.length s

let put_int b pos n =
  let w = width n in
  let m = ref (if n < 0 then n else -n) in
  for j = pos + w - 1 downto pos do
    Bytes.unsafe_set b j (Char.unsafe_chr (48 - (!m mod 10)));
    m := !m / 10
  done;
  if n < 0 then Bytes.unsafe_set b pos '-';
  pos + w

let finish b pos =
  assert (pos = Bytes.length b);
  Bytes.unsafe_to_string b

let int1 p a s =
  let b = Bytes.create (String.length p + width a + String.length s) in
  let pos = put_str b 0 p in
  let pos = put_int b pos a in
  finish b (put_str b pos s)

let int2 p a m x =
  let b =
    Bytes.create (String.length p + width a + String.length m + width x)
  in
  let pos = put_str b 0 p in
  let pos = put_int b pos a in
  let pos = put_str b pos m in
  finish b (put_int b pos x)

let int3 p a m x y =
  let b =
    Bytes.create
      (String.length p + width a + String.length m + width x + 1 + width y)
  in
  let pos = put_str b 0 p in
  let pos = put_int b pos a in
  let pos = put_str b pos m in
  let pos = put_int b pos x in
  Bytes.unsafe_set b pos ':';
  finish b (put_int b (pos + 1) y)

let int4 p a m x y z =
  let b =
    Bytes.create
      (String.length p + width a + String.length m + width x + 1 + width y
     + 1 + width z)
  in
  let pos = put_str b 0 p in
  let pos = put_int b pos a in
  let pos = put_str b pos m in
  let pos = put_int b pos x in
  Bytes.unsafe_set b pos ':';
  let pos = put_int b (pos + 1) y in
  Bytes.unsafe_set b pos ':';
  finish b (put_int b (pos + 1) z)

(* A memo of [name i] for 0 <= i < n.  Each published array is never
   written again; growing builds a new array and swaps it in, so a
   worker domain reads either the old table or the new one, both
   complete. *)
type table = { name : int -> string; cur : string array Atomic.t }

let table name = { name; cur = Atomic.make [||] }

let rec cover t n =
  let cur = Atomic.get t.cur in
  let have = Array.length cur in
  if have < n then begin
    let next = Array.init n (fun i -> if i < have then cur.(i) else t.name i) in
    if not (Atomic.compare_and_set t.cur cur next) then cover t n
  end

let get t i =
  let cur = Atomic.get t.cur in
  if i >= 0 && i < Array.length cur then Array.unsafe_get cur i else t.name i
