let payload ~seed size = Sim.Rng.bytes (Sim.Rng.create seed) size

let vocabulary_size = 512

(* A fixed synthetic vocabulary: wNNN tokens with lengths 3..10, so the
   byte stream looks like text without shipping a corpus. *)
let vocabulary =
  Array.init vocabulary_size (fun i ->
      let base = Printf.sprintf "w%03d" i in
      let pad = i mod 7 in
      base ^ String.make pad (Char.chr (Char.code 'a' + (i mod 26))))

let words_text ~seed size =
  (* Unboxed xorshift state: generating hundreds of MB of text per
     bench run must not allocate per word.  Seeded from the shared RNG
     so streams stay reproducible. *)
  let state = ref (Int64.to_int (Sim.Rng.next_int64 (Sim.Rng.create seed)) lor 1) in
  let next () =
    let x = !state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    state := x;
    x land max_int
  in
  (* Written straight into the result: the text is the first [size]
     bytes of the word stream, the last word cut short if need be. *)
  let text = Bytes.create size in
  let pos = ref 0 in
  while !pos < size do
    (* Zipf-ish: squaring the draw skews towards low indices. *)
    let r = next () mod (vocabulary_size * vocabulary_size) in
    let idx = r * r / (vocabulary_size * vocabulary_size * vocabulary_size) in
    let w = vocabulary.(idx mod vocabulary_size) in
    let len = String.length w in
    let k = if len < size - !pos then len else size - !pos in
    Bytes.blit_string w 0 text !pos k;
    pos := !pos + k;
    let sep = if next () mod 12 = 0 then '\n' else ' ' in
    if !pos < size then begin
      Bytes.unsafe_set text !pos sep;
      incr pos
    end
  done;
  text

let int32_records ~seed ~count =
  let rng = Sim.Rng.create seed in
  let b = Bytes.create (count * 4) in
  for i = 0 to count - 1 do
    Bytes.set_int32_le b (i * 4) (Int64.to_int32 (Sim.Rng.next_int64 rng))
  done;
  b

let record_count b = Bytes.length b / 4
let get_record b i = Bytes.get_int32_le b (i * 4)
let set_record b i v = Bytes.set_int32_le b (i * 4) v
