module Dfg = Bistpath_dfg.Dfg
module Op = Bistpath_dfg.Op
module Massign = Bistpath_dfg.Massign
module Sset = Bistpath_dfg.Dfg.Sset

type ctx = {
  unit_names : string array;
  var_ids : (string, int) Hashtbl.t;
  ins : Sset.t array;
  outs : Sset.t array;
  multiplicity : int array;
  in_units : int array array;
  out_units : int array array;
  module_units : int array array;  (* in_units + out_units, merged once *)
  src_units : int array array;
  instance_unit : int array;
  var_instances : int array array;
}

let make dfg massign =
  let ops_of = Hashtbl.create 16 in
  List.iter
    (fun (op : Op.t) ->
      Hashtbl.add ops_of (Massign.unit_of_op massign op.id).Massign.mid op)
    dfg.Dfg.ops;
  let unit_names =
    massign.Massign.units
    |> List.filter_map (fun (u : Massign.hw) ->
           if Hashtbl.mem ops_of u.mid then Some u.mid else None)
    |> List.sort compare |> Array.of_list
  in
  let var_names = Array.of_list (Dfg.variables dfg) in
  let var_ids = Hashtbl.create (Array.length var_names) in
  Array.iteri (fun i v -> Hashtbl.replace var_ids v i) var_names;
  let var v = Hashtbl.find var_ids v in
  let nv = Array.length var_names in
  let unit_ids = Hashtbl.create 16 in
  Array.iteri (fun u mid -> Hashtbl.replace unit_ids mid u) unit_names;
  let unit_of (op : Op.t) = Hashtbl.find unit_ids (Massign.unit_of_op massign op.id).Massign.mid in
  let ins_l = Array.make nv [] and outs_l = Array.make nv [] in
  let srcs_l = Array.make nv [] in
  let insts_l = Array.make nv [] in
  let nu = Array.length unit_names in
  let ins = Array.make nu Sset.empty and outs = Array.make nu Sset.empty in
  let instance_unit = Array.make (List.length dfg.Dfg.ops) 0 in
  List.iteri
    (fun j (op : Op.t) ->
      let u = unit_of op in
      instance_unit.(j) <- u;
      ins.(u) <- Sset.add op.left (Sset.add op.right ins.(u));
      outs.(u) <- Sset.add op.out outs.(u);
      let l = var op.left and r = var op.right and o = var op.out in
      ins_l.(l) <- u :: ins_l.(l);
      ins_l.(r) <- u :: ins_l.(r);
      outs_l.(o) <- u :: outs_l.(o);
      (* the first producer is the source (a well-formed DFG has one) *)
      if srcs_l.(o) = [] then srcs_l.(o) <- [ u ];
      insts_l.(l) <- j :: insts_l.(l);
      if r <> l then insts_l.(r) <- j :: insts_l.(r))
    dfg.Dfg.ops;
  let ids l = Array.of_list (List.sort_uniq compare l) in
  {
    unit_names;
    var_ids;
    ins;
    outs;
    multiplicity = Array.init nu (fun u -> List.length (Hashtbl.find_all ops_of unit_names.(u)));
    in_units = Array.map ids ins_l;
    out_units = Array.map ids outs_l;
    module_units = Array.init nv (fun v -> ids (ins_l.(v) @ outs_l.(v)));
    src_units = Array.map Array.of_list srcs_l;
    instance_unit;
    var_instances = Array.map (fun l -> Array.of_list (List.rev l)) insts_l;
  }

let var_id t v = Hashtbl.find_opt t.var_ids v

let unit_id t mid =
  let rec go u =
    if u >= Array.length t.unit_names then None
    else if String.equal t.unit_names.(u) mid then Some u
    else go (u + 1)
  in
  go 0

let units t = Array.to_list t.unit_names

let in_set t mid = match unit_id t mid with Some u -> t.ins.(u) | None -> Sset.empty
let out_set t mid = match unit_id t mid with Some u -> t.outs.(u) | None -> Sset.empty

let sd_var t v =
  match var_id t v with
  | Some i -> Array.length t.in_units.(i) + Array.length t.out_units.(i)
  | None -> 0

let sd_vars t vars =
  let nu = Array.length t.unit_names in
  let hit = Array.make (2 * nu) false in
  List.iter
    (fun v ->
      match var_id t v with
      | Some i ->
        Array.iter (fun u -> hit.(u) <- true) t.in_units.(i);
        Array.iter (fun u -> hit.(nu + u) <- true) t.out_units.(i)
      | None -> ())
    vars;
  Array.fold_left (fun n b -> if b then n + 1 else n) 0 hit

let delta_sd t reg v = sd_vars t (v :: reg) - sd_vars t reg

let names_of t of_var v =
  match var_id t v with
  | Some i -> Array.to_list (Array.map (fun u -> t.unit_names.(u)) of_var.(i))
  | None -> []

let source_units t v = names_of t t.src_units v
let dest_units t v = names_of t t.in_units v

let unit_count t = Array.length t.unit_names
let instance_count t = Array.length t.instance_unit
let unit_name t u = t.unit_names.(u)
let in_units t v = t.in_units.(v)
let out_units t v = t.out_units.(v)
let module_units t v = t.module_units.(v)
let src_units t v = t.src_units.(v)
let var_instances t v = t.var_instances.(v)
let instance_unit t j = t.instance_unit.(j)
let multiplicity t u = t.multiplicity.(u)
let out_size t u = Sset.cardinal t.outs.(u)
