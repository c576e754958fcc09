(* Values are serialized into a Buffer; decoding threads an explicit cursor
   through the input string. All formats are self-delimiting. *)

type 'a t = {
  enc : Buffer.t -> 'a -> unit;
  dec : string -> int -> 'a * int; (* returns value and next cursor *)
}

let encode c v =
  let buf = Buffer.create 64 in
  c.enc buf v;
  Buffer.contents buf

let decode c s =
  let v, pos = c.dec s 0 in
  if pos <> String.length s then
    Error.decode_error ~what:"Codec.decode" "trailing garbage (%d of %d bytes consumed)" pos
      (String.length s);
  v

let encoded_length c v =
  let buf = Buffer.create 64 in
  c.enc buf v;
  Buffer.length buf

let bits_length c v = 8 * encoded_length c v

type wire = Packed | Bits

let mode =
  ref
    (match Sys.getenv_opt "LPH_WIRE" with
    | None | Some "packed" -> Packed
    | Some ("bits" | "legacy") -> Bits
    | Some other -> invalid_arg ("Codec: LPH_WIRE must be \"packed\" or \"bits\", got " ^ other))

let wire_mode () = !mode

let set_wire_mode m = mode := m

(* the 8-character '0'/'1' expansion of each byte value, pre-packed as a
   little-endian int64 so expansion is one 8-byte store per input byte.
   Built eagerly: two domains of the parallel runner forcing a [lazy]
   table at once raise [CamlinternalLazy.Undefined]. *)
let byte_bits =
  Array.init 256 (fun b ->
      let s = String.init 8 (fun i -> if (b lsr (7 - i)) land 1 = 1 then '1' else '0') in
      String.get_int64_le s 0)

let encode_bits c v =
  let raw = encode c v in
  let tbl = byte_bits in
  let n = String.length raw in
  let out = Bytes.create (8 * n) in
  for i = 0 to n - 1 do
    Bytes.set_int64_le out (8 * i) (Array.unsafe_get tbl (Char.code (String.unsafe_get raw i)))
  done;
  Bytes.unsafe_to_string out

let decode_bits c s =
  let len = String.length s in
  if len mod 8 <> 0 then
    Error.decode_error ~what:"Codec.decode_bits" "length %d not a multiple of 8" len;
  let nb = len / 8 in
  let raw = Bytes.create nb in
  (* accumulate validity instead of branching per character: any byte
     that is not '0'/'1' leaves bits above bit 0 in [bad] *)
  let bad = ref 0 in
  for i = 0 to nb - 1 do
    let base = 8 * i in
    let c0 = Char.code (String.unsafe_get s base) - 48 in
    let c1 = Char.code (String.unsafe_get s (base + 1)) - 48 in
    let c2 = Char.code (String.unsafe_get s (base + 2)) - 48 in
    let c3 = Char.code (String.unsafe_get s (base + 3)) - 48 in
    let c4 = Char.code (String.unsafe_get s (base + 4)) - 48 in
    let c5 = Char.code (String.unsafe_get s (base + 5)) - 48 in
    let c6 = Char.code (String.unsafe_get s (base + 6)) - 48 in
    let c7 = Char.code (String.unsafe_get s (base + 7)) - 48 in
    bad := !bad lor c0 lor c1 lor c2 lor c3 lor c4 lor c5 lor c6 lor c7;
    let b =
      (c0 lsl 7) lor (c1 lsl 6) lor (c2 lsl 5) lor (c3 lsl 4) lor (c4 lsl 3) lor (c5 lsl 2)
      lor (c6 lsl 1) lor c7
    in
    Bytes.unsafe_set raw i (Char.unsafe_chr (b land 255))
  done;
  if !bad lsr 1 <> 0 then Error.decode_error ~what:"Codec.decode_bits" "non-bit character";
  decode c (Bytes.unsafe_to_string raw)

(* The transport format follows the global wire mode: [Packed] ships the
   raw serialized bytes, [Bits] the paper-literal '0'/'1' expansion. Cost
   accounting is mode-independent: a packed byte stands for 8 bits. *)

let encode_wire c v = match !mode with Packed -> encode c v | Bits -> encode_bits c v

let decode_wire c s = match !mode with Packed -> decode c s | Bits -> decode_bits c s

let wire_bits s = match !mode with Packed -> 8 * String.length s | Bits -> String.length s

(* Integers are encoded in base 128 with a continuation bit (LEB128-style),
   so small values cost one byte. *)
let int =
  let enc buf n =
    if n < 0 then invalid_arg "Codec.int: negative";
    let rec go n =
      if n < 128 then Buffer.add_char buf (Char.chr n)
      else begin
        Buffer.add_char buf (Char.chr (128 lor (n land 127)));
        go (n lsr 7)
      end
    in
    go n
  in
  let dec s pos =
    (* the continuation-bit shift is bounded: OCaml ints hold 62 value
       bits, so any chunk that would spill past bit 62 (including into
       the sign bit) is rejected instead of silently wrapping *)
    let rec go pos shift acc =
      if pos >= String.length s then Error.decode_error ~what:"Codec.int" "truncated";
      let b = Char.code s.[pos] in
      let chunk = b land 127 in
      if shift > 62 || (chunk <> 0 && chunk > max_int lsr shift) then
        Error.decode_error ~what:"Codec.int" "overflow";
      let acc = acc lor (chunk lsl shift) in
      if b land 128 = 0 then (acc, pos + 1) else go (pos + 1) (shift + 7) acc
    in
    go pos 0 0
  in
  { enc; dec }

let int_length n =
  if n < 0 then invalid_arg "Codec.int_length: negative";
  let rec go n acc = if n < 128 then acc else go (n lsr 7) (acc + 1) in
  go n 1

let string =
  let enc buf s =
    int.enc buf (String.length s);
    Buffer.add_string buf s
  in
  let dec s pos =
    let len, pos = int.dec s pos in
    if pos + len > String.length s then Error.decode_error ~what:"Codec.string" "truncated";
    (String.sub s pos len, pos + len)
  in
  { enc; dec }

let bool =
  let enc buf b = Buffer.add_char buf (if b then '\001' else '\000') in
  let dec s pos =
    if pos >= String.length s then Error.decode_error ~what:"Codec.bool" "truncated";
    (s.[pos] <> '\000', pos + 1)
  in
  { enc; dec }

let pair ca cb =
  let enc buf (a, b) =
    ca.enc buf a;
    cb.enc buf b
  in
  let dec s pos =
    let a, pos = ca.dec s pos in
    let b, pos = cb.dec s pos in
    ((a, b), pos)
  in
  { enc; dec }

let triple ca cb cc =
  let enc buf (a, b, c) =
    ca.enc buf a;
    cb.enc buf b;
    cc.enc buf c
  in
  let dec s pos =
    let a, pos = ca.dec s pos in
    let b, pos = cb.dec s pos in
    let c, pos = cc.dec s pos in
    ((a, b, c), pos)
  in
  { enc; dec }

let list c =
  let enc buf xs =
    int.enc buf (List.length xs);
    List.iter (c.enc buf) xs
  in
  let dec s pos =
    let n, pos = int.dec s pos in
    let rec go n pos acc =
      if n = 0 then (List.rev acc, pos)
      else
        let x, pos = c.dec s pos in
        go (n - 1) pos (x :: acc)
    in
    go n pos []
  in
  { enc; dec }

let option c =
  let enc buf = function
    | None -> bool.enc buf false
    | Some x ->
        bool.enc buf true;
        c.enc buf x
  in
  let dec s pos =
    let b, pos = bool.dec s pos in
    if b then
      let x, pos = c.dec s pos in
      (Some x, pos)
    else (None, pos)
  in
  { enc; dec }

let map of_wire to_wire c =
  let enc buf v = c.enc buf (to_wire v) in
  let dec s pos =
    let v, pos = c.dec s pos in
    (of_wire v, pos)
  in
  { enc; dec }

let enc c = c.enc

let dec c = c.dec

let custom ~enc ~dec = { enc; dec }
