module Iset = Ugraph.Iset

(* The zero fill-in test (Golumbic, Algorithmic Graph Theory and
   Perfect Graphs, Thm 4.5): an ordering is a PEO iff, for every vertex,
   its later neighbours other than the earliest one are all adjacent to
   that earliest one. *)
let is_peo g order =
  let all = Iset.of_list (Ugraph.vertices g) in
  let listed = Iset.of_list order in
  Iset.equal all listed
  && List.length order = Iset.cardinal all
  &&
  let position = Hashtbl.create 64 in
  List.iteri (fun i v -> Hashtbl.replace position v i) order;
  let pos v = Hashtbl.find position v in
  List.for_all
    (fun v ->
      let later = Iset.filter (fun u -> pos u > pos v) (Ugraph.neighbors g v) in
      match Iset.elements later with
      | [] -> true
      | u0 :: rest ->
        let first = List.fold_left (fun a u -> if pos u < pos a then u else a) u0 rest in
        Iset.for_all (fun w -> w = first || Ugraph.mem_edge g first w) later)
    order

(* Maximum cardinality search: repeatedly visit the unvisited vertex with
   the most visited neighbors. Reversing the visit order yields a PEO iff
   the graph is chordal (Tarjan & Yannakakis 1984). *)
let mcs_order g =
  let vs = Ugraph.vertices g in
  let weight = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace weight v 0) vs;
  let visited = Hashtbl.create 16 in
  let rec go acc remaining =
    if remaining = 0 then List.rev acc
    else begin
      let best = ref None in
      List.iter
        (fun v ->
          if not (Hashtbl.mem visited v) then
            let w = Hashtbl.find weight v in
            match !best with
            | Some (_, bw) when bw >= w -> ()
            | _ -> best := Some (v, w))
        vs;
      match !best with
      | None -> List.rev acc
      | Some (v, _) ->
        Hashtbl.replace visited v ();
        Iset.iter
          (fun u ->
            if not (Hashtbl.mem visited u) then
              Hashtbl.replace weight u (Hashtbl.find weight u + 1))
          (Ugraph.neighbors g v);
        go (v :: acc) (remaining - 1)
    end
  in
  go [] (List.length vs)

let is_chordal g = is_peo g (List.rev (mcs_order g))

(* Deleting a vertex only shrinks its neighbours' neighbourhoods: a
   simplicial vertex stays simplicial, and only the deleted vertex's
   neighbours can become simplicial. So the simplicial set carries over
   from step to step and only those neighbours are re-tested, over
   vertices numbered densely. *)
let peo_with_preference g ~prefer =
  let compare_pref u v =
    let c = prefer u v in
    if c <> 0 then c else compare u v
  in
  let vs = Array.of_list (Ugraph.vertices g) in
  let n = Array.length vs in
  let index = Hashtbl.create n in
  Array.iteri (fun i v -> Hashtbl.replace index v i) vs;
  let nbrs =
    Array.map
      (fun v -> Array.of_list (List.map (Hashtbl.find index) (Iset.elements (Ugraph.neighbors g v))))
      vs
  in
  let removed = Array.make n false in
  (* Live neighbourhood of i is a clique iff each member sees all the
     others: count marked neighbours. *)
  let mark = Array.make n 0 and stamp = ref 0 in
  let simplicial i =
    incr stamp;
    let s = !stamp in
    let live = List.filter (fun j -> not removed.(j)) (Array.to_list nbrs.(i)) in
    List.iter (fun j -> mark.(j) <- s) live;
    let k = List.length live in
    List.for_all
      (fun a -> Array.fold_left (fun c b -> if mark.(b) = s then c + 1 else c) 0 nbrs.(a) = k - 1)
      live
  in
  let rec go simp remaining acc =
    if remaining = 0 then List.rev acc
    else if Iset.is_empty simp then
      failwith "Chordal.peo_with_preference: graph is not chordal"
    else
      let v =
        Iset.fold
          (fun i best -> if compare_pref vs.(i) vs.(best) < 0 then i else best)
          simp (Iset.min_elt simp)
      in
      removed.(v) <- true;
      let simp =
        Array.fold_left
          (fun s u ->
            if removed.(u) || Iset.mem u s || not (simplicial u) then s else Iset.add u s)
          (Iset.remove v simp) nbrs.(v)
      in
      go simp (remaining - 1) (vs.(v) :: acc)
  in
  go (Iset.of_list (List.filter simplicial (List.init n Fun.id))) n []

(* Along a PEO, the candidate maximal cliques are {v} + later neighbors of
   v, one per vertex in PEO order. Every candidate is a clique and every
   maximal clique is a candidate (standard chordal clique enumeration). *)
let peo_candidates g =
  let peo = List.rev (mcs_order g) in
  if not (is_peo g peo) then failwith "Chordal.maximal_cliques: graph is not chordal";
  let position = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace position v i) peo;
  List.map
    (fun v ->
      let pv = Hashtbl.find position v in
      Iset.add v (Iset.filter (fun u -> Hashtbl.find position u > pv) (Ugraph.neighbors g v)))
    peo

(* A candidate is maximal unless it is contained in another candidate. *)
let maximal_cliques g =
  let candidates = peo_candidates g in
  List.filter
    (fun c ->
      not (List.exists (fun c' -> (not (Iset.equal c c')) && Iset.subset c c') candidates))
    candidates
  |> List.sort_uniq (fun a b -> compare (Iset.elements a) (Iset.elements b))

(* The largest candidate containing v is the largest clique containing
   v: no maximality filter needed. *)
let max_clique_size_per_vertex g =
  let best = Hashtbl.create 16 in
  List.iter
    (fun c ->
      let size = Iset.cardinal c in
      Iset.iter
        (fun u ->
          match Hashtbl.find_opt best u with
          | Some b when b >= size -> ()
          | _ -> Hashtbl.replace best u size)
        c)
    (peo_candidates g);
  List.map (fun v -> (v, Hashtbl.find best v)) (Ugraph.vertices g)

let clique_number g =
  List.fold_left (fun acc c -> max acc (Iset.cardinal c)) 0 (maximal_cliques g)
