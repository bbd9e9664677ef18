(* Immutable fixed-width bitvectors backed by an int array.  Each array
   cell holds [bits_per_word] payload bits; unused high bits of the last
   word are kept at zero so that [equal]/[compare]/[hash] can work on
   the raw words. *)

let bits_per_word = 62
let word_mask = (1 lsl bits_per_word) - 1

type t = { width : int; words : int array }

let nwords width = (width + bits_per_word - 1) / bits_per_word

let width v = v.width

let zero w =
  if w < 0 then invalid_arg "Bitvec.zero: negative width";
  { width = w; words = Array.make (max 1 (nwords w)) 0 }

let check_index v i =
  if i < 0 || i >= v.width then
    invalid_arg
      (Printf.sprintf "Bitvec: index %d out of bounds (width %d)" i v.width)

let singleton w i =
  let v = zero w in
  check_index v i;
  v.words.(i / bits_per_word) <- 1 lsl (i mod bits_per_word);
  v

let is_zero v = Array.for_all (fun w -> w = 0) v.words

let get v i =
  check_index v i;
  v.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let set v i =
  check_index v i;
  let words = Array.copy v.words in
  words.(i / bits_per_word) <-
    words.(i / bits_per_word) lor (1 lsl (i mod bits_per_word));
  { v with words }

let check_same_width a b op =
  if a.width <> b.width then
    invalid_arg
      (Printf.sprintf "Bitvec.%s: width mismatch (%d vs %d)" op a.width b.width)

let logor a b =
  check_same_width a b "logor";
  { width = a.width; words = Array.map2 ( lor ) a.words b.words }

let logand a b =
  check_same_width a b "logand";
  { width = a.width; words = Array.map2 ( land ) a.words b.words }

let equal a b = a.width = b.width && a.words = b.words

let compare a b =
  let c = Int.compare a.width b.width in
  if c <> 0 then c else Stdlib.compare a.words b.words

let hash v = Hashtbl.hash (v.width, v.words)

(* The first differing bit is the lowest set bit of the first non-zero
   word xor; the vector holding a 0 there comes first. *)
let lex_compare a b =
  check_same_width a b "lex_compare";
  let rec go i =
    if i = Array.length a.words then 0
    else
      let x = a.words.(i) lxor b.words.(i) in
      if x = 0 then go (i + 1) else if a.words.(i) land (x land -x) = 0 then -1 else 1
  in
  go 0

(* The word loops behind the containment and intersection tests are
   top-level so that a call allocates no closure: the path join makes
   millions of these calls per workload. *)
let rec words_within a b i =
  i < 0 || (b.(i) land lnot a.(i) = 0 && words_within a b (i - 1))

let rec words_meet a b i = i >= 0 && (a.(i) land b.(i) <> 0 || words_meet a b (i - 1))

(* [b]'s bits all lie in [a] iff no word of [b] has a bit outside
   [a]'s. *)
let contains_or_equal a b =
  check_same_width a b "contains_or_equal";
  words_within a.words b.words (Array.length a.words - 1)

let contains a b = contains_or_equal a b && not (equal a b)

let intersects a b =
  check_same_width a b "intersects";
  words_meet a.words b.words (Array.length a.words - 1)

(* Index of the only set bit of [b], a power of two below 2^62, found
   by halving the candidate range. *)
let bit_index b =
  let b = ref b and i = ref 0 in
  if !b land 0xFFFF_FFFF = 0 then (b := !b lsr 32; i := 32);
  if !b land 0xFFFF = 0 then (b := !b lsr 16; i := !i + 16);
  if !b land 0xFF = 0 then (b := !b lsr 8; i := !i + 8);
  if !b land 0xF = 0 then (b := !b lsr 4; i := !i + 4);
  if !b land 0x3 = 0 then (b := !b lsr 2; i := !i + 2);
  if !b land 0x1 = 0 then !i + 1 else !i

(* One step per set bit: [w land (w - 1)] clears the lowest. *)
let popcount_word w =
  let rec loop w acc = if w = 0 then acc else loop (w land (w - 1)) (acc + 1) in
  loop w 0

let popcount v = Array.fold_left (fun acc w -> acc + popcount_word w) 0 v.words

(* Words hold at most [bits_per_word] = 62 bits, so they are
   non-negative and [w land (-w)] isolates the lowest set bit. *)
let iter_set_bits v f =
  for wi = 0 to Array.length v.words - 1 do
    let w = ref v.words.(wi) in
    while !w <> 0 do
      let low = !w land (- !w) in
      f ((wi * bits_per_word) + bit_index low);
      w := !w lxor low
    done
  done

let set_bits v =
  let acc = ref [] in
  iter_set_bits v (fun i -> acc := i :: !acc);
  List.rev !acc

let first_set_bit v =
  let exception Found of int in
  try
    iter_set_bits v (fun i -> raise (Found i));
    None
  with Found i -> Some i

let of_bits a =
  let v = zero (Array.length a) in
  Array.iteri
    (fun i b ->
      if b then
        v.words.(i / bits_per_word) <-
          v.words.(i / bits_per_word) lor (1 lsl (i mod bits_per_word)))
    a;
  v

let of_string s =
  of_bits
    (Array.init (String.length s) (fun i ->
         match s.[i] with
         | '0' -> false
         | '1' -> true
         | c -> invalid_arg (Printf.sprintf "Bitvec.of_string: bad char %c" c)))

let to_string v = String.init v.width (fun i -> if get v i then '1' else '0')

(* A flat array of same-width vectors keeps each one's words at a
   fixed stride, in the layout [t] uses. *)
let words_for width = max 1 (nwords width)

let of_words ~width words off = { width; words = Array.sub words off (words_for width) }
let blit_words v words off = Array.blit v.words 0 words off (Array.length v.words)

(* Byte [k] of the packing holds bits [8k .. 8k+7]: they start at bit
   [8k mod 62] of word [8k / 62] and spill into the next word when
   that offset is past 54.  Bits past the width are clear in the
   words, so the padding comes out clear. *)
let packed_of_words ~width words off =
  let nw = words_for width in
  String.init ((width + 7) / 8) (fun byte ->
      let w = byte * 8 / bits_per_word and o = byte * 8 mod bits_per_word in
      let v = words.(off + w) lsr o in
      let v = if w + 1 < nw then v lor (words.(off + w + 1) lsl (bits_per_word - o)) else v in
      Char.chr (v land 0xff))

let to_packed_string v = packed_of_words ~width:v.width v.words 0

(* Word by word: word [k] holds bits [62k .. 62k + 61], which start at
   bit [62k mod 8] of byte [62k / 8] and span nine bytes at most, read
   as one little-endian int64 and the byte after it.  Bytes past the
   packing are read too when [s] has them, and masked off with the bits
   past [width]; fewer than eight bytes at the very end of [s] are read
   one by one.
   Checking the padding first keeps every bit past [width] clear. *)
let packed_into ~width s pos words off =
  let nbytes = (width + 7) / 8 in
  if width mod 8 <> 0 && Char.code s.[pos + nbytes - 1] lsr (width mod 8) <> 0 then false
  else begin
    let nw = words_for width in
    for k = 0 to nw - 1 do
      let bit = k * bits_per_word in
      let b = pos + (bit lsr 3) and sh = bit land 7 in
      let w =
        if b + 8 <= String.length s then begin
          let lo = Int64.to_int (Int64.shift_right_logical (String.get_int64_le s b) sh) in
          if sh > 2 && b + 8 < String.length s then
            lo lor (Char.code (String.unsafe_get s (b + 8)) lsl (64 - sh))
          else lo
        end
        else begin
          let v = ref 0 in
          for i = pos + nbytes - 1 downto b do
            v := (!v lsl 8) lor Char.code s.[i]
          done;
          !v lsr sh
        end
      in
      let keep = if k = nw - 1 then (1 lsl (width - bit)) - 1 else word_mask in
      words.(off + k) <- w land keep
    done;
    true
  end

let of_packed_string ~width s =
  if String.length s <> (width + 7) / 8 then
    invalid_arg "Bitvec.of_packed_string: length mismatch";
  let v = zero width in
  if not (packed_into ~width s 0 v.words 0) then
    invalid_arg "Bitvec.of_packed_string: nonzero padding bits";
  v

let byte_size v = max 1 ((v.width + 7) / 8)

let pp ppf v = Format.pp_print_string ppf (to_string v)
