(* Generated federations and the answer oracle.

   Every source holds one relational table [person<i>] of (id, name,
   salary) rows drawn from the benchmark seed, behind repository [r<i>]
   and the SQL wrapper [w0]; the mediator sees the tables as extents of
   one [Person] interface whose implicit extent [person] is their union.
   The oracle computes expected answers from the rows directly, never
   through the mediator. *)

open Disco
module V = Value

type row = { id : int; name : string; salary : int }

(* Stateless seeded draws: the same (seed, salt, index) always gives the
   same value, so inputs never depend on the order they are drawn in. *)
let draw ~seed salt i = Hashtbl.hash (seed, salt, i, 0x5EED) land 0x3FFFFFFF
let uniform ~seed salt i lo hi = lo + (draw ~seed salt i mod (hi - lo + 1))

let unit_float ~seed salt i =
  float_of_int (draw ~seed salt i land 0xFFFFF) /. float_of_int 0x100000

let gen_row ~seed ~source k =
  {
    id = k;
    name = Printf.sprintf "n%d_%d" source (draw ~seed (1000 + source) k mod 10_000);
    salary = uniform ~seed (2000 + source) k 10 500;
  }

let repo i = Printf.sprintf "r%d" i
let extent i = Printf.sprintf "person%d" i

let schema =
  Schema.make
    [ ("id", Schema.TInt); ("name", Schema.TString); ("salary", Schema.TInt) ]

let to_array r = [| V.Int r.id; V.String r.name; V.Int r.salary |]

let of_array = function
  | [| V.Int id; V.String name; V.Int salary |] -> { id; name; salary }
  | _ -> invalid_arg "Fed.of_array: not a person row"

let to_struct r =
  V.strct [ ("id", V.Int r.id); ("name", V.String r.name); ("salary", V.Int r.salary) ]

(* -- federation -- *)

type spec = {
  sources : int;
  rows : int;  (** rows per source at set-up *)
  latency : int -> Source.latency;
  schedule : int -> Schedule.t;
  cache : bool;  (** attach an answer cache *)
}

type t = {
  med : Mediator.t;
  metrics : Metrics.t;
  sources : Source.t array;
  tables : Table.t array;
}

(* Per-source base cost drawn from the seed in [9.5, 10.5] virtual ms:
   heterogeneous enough that virtual times differ between seeds, narrow
   enough that their medians do not. *)
let seeded_latency ~seed i =
  { Source.base_ms = 9.5 +. unit_float ~seed 3000 i; per_row_ms = 0.01; jitter = 0.1 }

(* The same model a thousand times faster: about 10 microseconds a call. *)
let micro_latency ~seed i =
  let l = seeded_latency ~seed i in
  { l with Source.base_ms = l.Source.base_ms /. 1000.0; per_row_ms = l.Source.per_row_ms /. 1000.0 }

let build ?sched ?wrapper ?trace_sink ~seed spec =
  let metrics = Metrics.create () in
  let cache = if spec.cache then Some (Answer_cache.create ()) else None in
  let med =
    Mediator.create
      ~config:{ Mediator.Config.default with sched; cache; metrics; trace_sink }
      ~name:"bench" ()
  in
  Option.iter (fun w -> Mediator.register_wrapper med ~name:"w0" w) wrapper;
  Mediator.load_odl med
    {|w0 := WrapperPostgres();
      interface Person (extent person) {
        attribute Short id;
        attribute String name;
        attribute Short salary; }|};
  let built =
    Array.init spec.sources (fun i ->
        let db = Database.create ~name:"db" in
        let table = Database.create_table db ~name:(extent i) schema in
        Table.insert_all table
          (List.init spec.rows (fun k -> to_array (gen_row ~seed ~source:i k)));
        let source =
          Source.create ~id:(repo i)
            ~address:
              (Source.address ~host:(Printf.sprintf "site%d" i) ~db_name:"db"
                 ~ip:"0.0.0.0" ())
            ~latency:(spec.latency i) ~schedule:(spec.schedule i)
            (Source.Relational db)
        in
        Mediator.register_source med ~name:(repo i) source;
        Mediator.load_odl med
          (Printf.sprintf
             {|%s := Repository(host="site%d", name="db", address="0.0.0.0");
               extent %s of Person wrapper w0 repository %s;|}
             (repo i) i (extent i) (repo i));
        (source, table))
  in
  { med; metrics; sources = Array.map fst built; tables = Array.map snd built }

let current_rows t i = List.map of_array (Table.rows t.tables.(i))

(* -- queries and their oracle -- *)

type query = {
  text : string;
  needed : int list;  (** sources whose data the answer needs *)
  expected : (int -> row list) -> V.t;
      (** the answer, from the current rows of each source *)
}

let all_sources n = List.init n Fun.id

(* [select <proj> from x in person where <pred>] over all [n] sources. *)
let select ~n ~proj_text ~proj ~pred_text ~pred =
  {
    text = Printf.sprintf "select %s from x in person where %s" proj_text pred_text;
    needed = all_sources n;
    expected =
      (fun rows_of ->
        V.bag
          (List.concat_map
             (fun i -> List.filter_map (fun r -> if pred r then Some (proj r) else None) (rows_of i))
             (all_sources n)));
  }

let names_above ~n k =
  select ~n ~proj_text:"x.name"
    ~proj:(fun r -> V.String r.name)
    ~pred_text:(Printf.sprintf "x.salary > %d" k)
    ~pred:(fun r -> r.salary > k)

let window ~n ~lo ~hi =
  select ~n ~proj_text:"x"
    ~proj:to_struct
    ~pred_text:(Printf.sprintf "x.salary >= %d and x.salary < %d" lo hi)
    ~pred:(fun r -> r.salary >= lo && r.salary < hi)

let id_and_salary ~n ~k ~bound =
  select ~n ~proj_text:"struct(n: x.name, s: x.salary)"
    ~proj:(fun r -> V.strct [ ("n", V.String r.name); ("s", V.Int r.salary) ])
    ~pred_text:(Printf.sprintf "x.salary > %d and x.id < %d" k bound)
    ~pred:(fun r -> r.salary > k && r.id < bound)

(* Equi-join of two extents on id with a selection on each side. *)
let join ~left ~right ~k ~bound =
  {
    text =
      Printf.sprintf
        "select struct(a: x.name, b: y.salary) from x in %s, y in %s where \
         x.id = y.id and x.salary > %d and y.salary < %d"
        (extent left) (extent right) k bound;
    needed = [ left; right ];
    expected =
      (fun rows_of ->
        let ys = rows_of right in
        V.bag
          (List.concat_map
             (fun x ->
               if x.salary > k then
                 List.filter_map
                   (fun y ->
                     if y.id = x.id && y.salary < bound then
                       Some (V.strct [ ("a", V.String x.name); ("b", V.Int y.salary) ])
                     else None)
                   ys
               else [])
             (rows_of left)));
  }

(* -- checking one outcome -- *)

type verdict = {
  ok : bool;
  complete : bool;
  fraction : float;  (** share of the needed sources whose data is in the answer *)
  why : string;  (** empty when [ok] *)
}

let wrong why = { ok = false; complete = false; fraction = 0.0; why }

let repo_index r =
  if String.length r > 1 && r.[0] = 'r' then
    int_of_string_opt (String.sub r 1 (String.length r - 1))
  else None

(* A complete answer must equal the oracle's. A partial answer may only
   name sources that were down when the query was issued ([down]; a down
   source may still be answered from a fresh answer-cache entry), and
   must evaluate to the oracle's answer once the missing extents are
   bound to their sources' current rows. *)
let check ~rows_of ~down q (answer : Mediator.answer) =
  let expected = q.expected rows_of in
  match answer with
  | Mediator.Complete v ->
      if V.equal v expected then { ok = true; complete = true; fraction = 1.0; why = "" }
      else wrong (Printf.sprintf "wrong answer to %s" q.text)
  | Mediator.Unavailable _ -> wrong "unavailable outcome under partial-answer semantics"
  | Mediator.Partial p -> (
      let missing = List.filter_map repo_index p.Runtime.unavailable in
      if List.length missing <> List.length p.Runtime.unavailable then
        wrong "partial answer names an unknown repository"
      else if not (List.for_all (fun i -> List.mem i down) missing) then
        wrong
          (Printf.sprintf "partial answer names an up source: %s"
             (String.concat "," p.Runtime.unavailable))
      else
        let resolve name =
          List.find_map
            (fun i ->
              if String.equal name (extent i) then
                Some (V.bag (List.map to_struct (rows_of i)))
              else None)
            missing
        in
        match Eval.eval (Eval.env ~resolve ()) p.Runtime.query with
        | v when V.equal v expected ->
            let needed = List.length q.needed in
            let lost = List.length (List.filter (fun i -> List.mem i q.needed) missing) in
            {
              ok = true;
              complete = false;
              fraction = float_of_int (needed - lost) /. float_of_int needed;
              why = "";
            }
        | _ -> wrong (Printf.sprintf "residual of %s does not evaluate to the answer" q.text)
        | exception e ->
            wrong (Printf.sprintf "residual of %s: %s" q.text (Printexc.to_string e)))
