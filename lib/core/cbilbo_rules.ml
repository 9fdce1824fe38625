module Listx = Bistpath_util.Listx

type verdict = {
  mid : string;
  case_i : string list;
  case_ii : (string * string) list;
}

(* Registers are disjoint, so the holders of O_M together hold [assigned]
   of its variables: case (i) is a lone covering holder of all of O_M,
   case (ii) two covering holders splitting it. *)
let offer ~out_size ~assigned ~covers holders =
  if assigned < out_size then []
  else
    match holders with
    | [ r ] when covers r -> [ r ]
    | [ x; y ] when covers x && covers y -> [ x; y ]
    | _ -> []

(* Greedy cover: each forced module offers candidate registers; repeatedly
   commit the register covering the most remaining modules, the first in
   [compare] order on ties. *)
let greedy_cover ~compare offers =
  let mem r offer = List.exists (fun x -> compare x r = 0) offer in
  let rec cover count remaining =
    match remaining with
    | [] -> count
    | _ ->
      let candidates = List.sort_uniq compare (List.concat remaining) in
      let gain r = List.length (List.filter (mem r) remaining) in
      let best =
        match Listx.max_by gain candidates with
        | Some r -> r
        | None -> assert false
      in
      cover (count + 1) (List.filter (fun offer -> not (mem best offer)) remaining)
  in
  cover 0 (List.filter (fun o -> o <> []) offers)

(* Per-class summaries for unit [u]: how many O_M variables the class
   holds and whether it meets every instance's operand set. A variable
   listed by several classes counts for the first of them only, so the
   lemma always sees disjoint classes. *)
let verdict_of ctx u ~classes =
  let covered = Array.make (Sharing.instance_count ctx) false in
  let claimed = Hashtbl.create 16 in
  let summary (rid, vars) =
    let ids =
      List.filter_map (Sharing.var_id ctx) vars
      |> List.sort_uniq compare
      |> List.filter (fun v -> not (Hashtbl.mem claimed v))
    in
    List.iter (fun v -> Hashtbl.replace claimed v ()) ids;
    let outs = List.length (List.filter (fun v -> Array.mem u (Sharing.out_units ctx v)) ids) in
    Array.fill covered 0 (Array.length covered) false;
    let hit = ref 0 in
    List.iter
      (fun v ->
        Array.iter
          (fun j ->
            if Sharing.instance_unit ctx j = u && not covered.(j) then begin
              covered.(j) <- true;
              incr hit
            end)
          (Sharing.var_instances ctx v))
      ids;
    (rid, outs, !hit = Sharing.multiplicity ctx u)
  in
  let holders = List.filter (fun (_, outs, _) -> outs > 0) (List.map summary classes) in
  let covers rid = List.exists (fun (r, _, c) -> c && String.equal r rid) holders in
  let forced =
    offer ~out_size:(Sharing.out_size ctx u)
      ~assigned:(Listx.sum_by (fun (_, outs, _) -> outs) holders)
      ~covers
      (List.map (fun (r, _, _) -> r) holders)
  in
  let mid = Sharing.unit_name ctx u in
  match forced with
  | [ r ] -> { mid; case_i = [ r ]; case_ii = [] }
  | [ x; y ] -> { mid; case_i = []; case_ii = [ (x, y) ] }
  | _ -> { mid; case_i = []; case_ii = [] }

let check_module ctx ~mid ~classes =
  match Sharing.unit_id ctx mid with
  | Some u -> verdict_of ctx u ~classes
  | None -> { mid; case_i = []; case_ii = [] }

let forced v = v.case_i <> [] || v.case_ii <> []

let verdicts ctx ~classes =
  List.init (Sharing.unit_count ctx) (fun u -> verdict_of ctx u ~classes)

let any_forced ctx ~classes = List.exists forced (verdicts ctx ~classes)

let min_cbilbo_count ctx ~classes =
  verdicts ctx ~classes
  |> List.map (fun v -> v.case_i @ List.concat_map (fun (x, y) -> [ x; y ]) v.case_ii)
  |> greedy_cover ~compare:String.compare
