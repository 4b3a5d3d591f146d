type field = { fname : string; fwidth : int }

type t = { fields : field list; words : int list array }

let bits_for n =
  let rec go b = if 1 lsl b >= n then b else go (b + 1) in
  if n <= 1 then 0 else go 1

let fits f v = v >= 0 && (f.fwidth >= Sys.int_size - 1 || v < 1 lsl f.fwidth)

let make ~fields ~words =
  Array.iteri
    (fun state vals ->
      if List.length vals <> List.length fields then
        invalid_arg (Printf.sprintf "Microcode.make: state %d arity mismatch" state);
      List.iter2
        (fun f v ->
          if not (fits f v) then
            invalid_arg
              (Printf.sprintf "Microcode.make: state %d field %s value %d out of range"
                 state f.fname v))
        fields vals)
    words;
  { fields; words }

let n_states t = Array.length t.words

let word_width t = List.fold_left (fun acc f -> acc + f.fwidth) 0 t.fields

let horizontal_bits t = n_states t * word_width t

let vertical_bits t =
  (* each field encoded to the distinct values it actually takes *)
  let nth_values i =
    Array.to_list t.words |> List.map (fun vals -> List.nth vals i) |> List.sort_uniq compare
  in
  let encoded_width =
    List.mapi (fun i _ -> bits_for (List.length (nth_values i))) t.fields
    |> List.fold_left ( + ) 0
  in
  n_states t * encoded_width

let unique_words t =
  Array.to_list t.words |> List.sort_uniq compare |> List.length

let dictionary_bits t =
  let u = unique_words t in
  let pointer = bits_for u in
  (n_states t * pointer) + (u * word_width t)

let pp ppf t =
  Format.fprintf ppf
    "microcode: %d states x %d bits; horizontal %d, vertical %d, dictionary %d bits (%d unique words)@."
    (n_states t) (word_width t) (horizontal_bits t) (vertical_bits t)
    (dictionary_bits t) (unique_words t)
