(* Oracle for Hls_alloc.Clique.partition: the seed implementation, with
   groups as lists of lists and compatibility and common-neighbor counts
   recomputed from member pairs on every probe. It gives exactly the
   same partition (merge and tie-break order replicated); the
   differential property in test_alloc.ml and the clique kernel of the
   bench driver compare the two. *)

let partition ~n ~compatible =
  let groups = ref (List.init n (fun i -> [ i ])) in
  let group_compatible ga gb =
    List.for_all (fun a -> List.for_all (fun b -> compatible a b) gb) ga
  in
  let common_neighbors ga gb all =
    List.length
      (List.filter
         (fun gc -> gc != ga && gc != gb && group_compatible ga gc && group_compatible gb gc)
         all)
  in
  let rec loop () =
    let all = !groups in
    (* best compatible pair by common-neighbor count *)
    let best = ref None in
    let rec pairs = function
      | [] -> ()
      | ga :: rest ->
          List.iter
            (fun gb ->
              if group_compatible ga gb then begin
                let score = common_neighbors ga gb all in
                match !best with
                | Some (s, _, _) when s >= score -> ()
                | _ -> best := Some (score, ga, gb)
              end)
            rest;
          pairs rest
    in
    pairs all;
    match !best with
    | None -> ()
    | Some (_, ga, gb) ->
        groups :=
          List.sort compare (ga @ gb)
          :: List.filter (fun g -> g != ga && g != gb) all;
        loop ()
  in
  loop ();
  List.map (List.sort compare) !groups
  |> List.sort (fun a b ->
         match (a, b) with x :: _, y :: _ -> compare x y | _, _ -> 0)
