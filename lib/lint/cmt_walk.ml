let starts_with ~prefix s =
  let lp = String.length prefix in
  String.length s >= lp && String.sub s 0 lp = prefix

let ends_with ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suffix

(* ------------------------------------------------------------------ *)
(* Path and type naming                                                *)
(* ------------------------------------------------------------------ *)

(* "Stdlib.List.mem" -> "List.mem"; "Ocube_mutex__Types.Message.t" ->
   "Types.Message.t" (dune mangles wrapped-library module names with
   "<lib>__<Module>"; the prefix is noise for rule configuration). *)
let normalise_name n =
  let n =
    if starts_with ~prefix:"Stdlib." n then
      String.sub n 7 (String.length n - 7)
    else n
  in
  match String.index_opt n '.' with
  | None -> n
  | Some dot ->
    let head = String.sub n 0 dot in
    let rest = String.sub n dot (String.length n - dot) in
    let head =
      let rec last_mangle i acc =
        if i + 1 >= String.length head then acc
        else if head.[i] = '_' && head.[i + 1] = '_' then
          last_mangle (i + 2) (Some (i + 2))
        else last_mangle (i + 1) acc
      in
      match last_mangle 0 None with
      | Some j when j < String.length head ->
        String.sub head j (String.length head - j)
      | _ -> head
    in
    head ^ rest

let matches_suffix ~candidates n =
  List.exists (fun s -> n = s || ends_with ~suffix:("." ^ s) n) candidates

let rec type_name ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> normalise_name (Path.name p)
  | Types.Ttuple _ -> "a tuple"
  | Types.Tvar (Some v) -> "'" ^ v
  | Types.Tvar None -> "a type variable"
  | Types.Tarrow _ -> "a function"
  | Types.Tpoly (t, _) -> type_name t
  | _ -> "an abstract type"

let rec safe_compare_type ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, args, _) -> (
    let n = normalise_name (Path.name p) in
    match n with
    | "int" | "char" | "bool" | "unit" | "string" | "bytes" | "float"
    | "int32" | "int64" | "nativeint" ->
      true
    | "option" | "list" | "array" | "ref" ->
      List.for_all safe_compare_type args
    | "Bigarray.kind" | "Bigarray.layout" ->
      (* kind/layout witnesses over whitelisted phantom markers *)
      List.for_all safe_compare_type args
    | _ -> matches_suffix ~candidates:Rules.safe_named_types n)
  | Types.Ttuple ts -> List.for_all safe_compare_type ts
  | Types.Tpoly (t, _) -> safe_compare_type t
  | _ -> false

let is_protocol_type ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) ->
    matches_suffix ~candidates:Rules.protocol_types
      (normalise_name (Path.name p))
  | _ -> false

let arrow_domain ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, d, _, _) -> Some d
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Suppression attributes                                              *)
(* ------------------------------------------------------------------ *)

let split_rule_ids s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char ',')
  |> List.filter_map (fun w ->
         let w = String.trim w in
         if w = "" then None else Some w)

let has_attr name (attrs : Typedtree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) -> String.equal a.attr_name.txt name)
    attrs

let allows_of_attrs (attrs : Typedtree.attributes) =
  List.concat_map
    (fun (a : Parsetree.attribute) ->
      if not (String.equal a.attr_name.txt "ocube.lint.allow") then []
      else
        match a.attr_payload with
        | Parsetree.PStr
            [
              {
                pstr_desc =
                  Pstr_eval
                    ( {
                        pexp_desc =
                          Pexp_constant (Pconst_string (s, _, _));
                        _;
                      },
                      _ );
                _;
              };
            ] -> (
          match split_rule_ids s with [] -> [ "*" ] | ids -> ids)
        | _ -> [ "*" ])
    attrs

(* ------------------------------------------------------------------ *)
(* Analysis context                                                    *)
(* ------------------------------------------------------------------ *)

type ctx = {
  source : string;
  fixture : bool;
  mutable stack : string list list;  (* nested [@ocube.lint.allow] scopes *)
  mutable file_allows : string list;  (* floating [@@@ocube.lint.allow] *)
  mutable diags : Diag.t list;
  handled_heads : (Location.t, unit) Hashtbl.t;
      (* apply heads already checked with argument context, so the bare
         ident visit must not double-report them *)
}

let rule_active ctx rule =
  if ctx.fixture then true
  else
    let in_lib = starts_with ~prefix:"lib/" ctx.source in
    let in_bin = starts_with ~prefix:"bin/" ctx.source in
    let in_test = starts_with ~prefix:"test/" ctx.source in
    match rule with
    | Rules.Determinism | Rules.Determinism_taint ->
      (in_lib && not (String.equal ctx.source Rules.rng_module))
      || in_bin || in_test
    | Rules.No_poly_compare -> in_lib || in_bin
    | Rules.Domain_race | Rules.Zero_alloc -> in_lib || in_bin || in_test
    | Rules.No_marshal | Rules.Handler_totality | Rules.Io_hygiene
    | Rules.Mli_coverage ->
      in_lib

let suppressed ctx rule_id =
  let hit ids = List.mem "*" ids || List.mem rule_id ids in
  hit ctx.file_allows || List.exists hit ctx.stack

let emit ctx rule (loc : Location.t) message =
  if rule_active ctx rule then begin
    let rule_id = Rules.id_to_string rule in
    if not (suppressed ctx rule_id) then begin
      let line = max 1 loc.loc_start.pos_lnum in
      ctx.diags <-
        Diag.make ~file:ctx.source ~line ~rule:rule_id ~message
        :: ctx.diags
    end
  end

(* ------------------------------------------------------------------ *)
(* Per-expression checks                                               *)
(* ------------------------------------------------------------------ *)

(* Ban entries name stdlib values without their [Stdlib.] prefix. To keep a
   locally-defined [compare] or [exit] from matching, a bare entry like
   ["compare"] only matches the raw path "Stdlib.compare", while a
   module-qualified entry like ["List.mem"] or a prefix entry like
   ["Random."] matches with or without the [Stdlib.] prefix (no project
   module shadows those names). *)
let matches_entry entry raw =
  let with_stdlib = "Stdlib." ^ entry in
  if ends_with ~suffix:"." entry then
    starts_with ~prefix:with_stdlib raw
    || (String.contains entry '.' && starts_with ~prefix:entry raw
        && not (String.equal entry "Stdlib."))
  else
    String.equal raw with_stdlib
    || (String.contains entry '.' && String.equal raw entry)

let banned_by entries raw = List.exists (fun b -> matches_entry b raw) entries

let poly_compare_name raw =
  List.find_opt (fun b -> matches_entry b raw) Rules.poly_compare_functions

let check_ident ctx (loc : Location.t) raw ty =
  let name = normalise_name raw in
  if banned_by Rules.determinism_banned raw then
    emit ctx Rules.Determinism loc
      (Printf.sprintf
         "ambient time/randomness %s; thread randomness through \
          Ocube_sim.Rng"
         name);
  if banned_by Rules.marshal_banned raw then
    emit ctx Rules.No_marshal loc
      (Printf.sprintf "%s is banned in lib/; use the packed Spec codec"
         name);
  if banned_by Rules.io_banned raw then
    emit ctx Rules.Io_hygiene loc
      (Printf.sprintf
         "console I/O or exit in library code (%s); return output as a \
          string or a record (the Obs.Export pattern: renderers build \
          bytes, bin/ decides where they go)"
         name);
  if not (Hashtbl.mem ctx.handled_heads loc) then begin
    match poly_compare_name raw with
    | Some entry -> (
      match arrow_domain ty with
      | Some d when not (safe_compare_type d) ->
        emit ctx Rules.No_poly_compare loc
          (Printf.sprintf
             "structural (%s) at %s; use a type-specific equal/compare"
             entry (type_name d))
      | _ -> ())
    | None -> ()
  end

(* [x = None], [q = []], [flag <> false]: comparing against a literal
   constant constructor is a tag check, deterministic for any
   representation, so [=]/[<>] against one is never flagged. *)
let constant_constructor (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_construct (_, _, []) -> true
  | Typedtree.Texp_variant (_, None) -> true
  | _ -> false

let check_apply ctx (f : Typedtree.expression) args =
  match f.exp_desc with
  | Typedtree.Texp_ident (path, _, _) -> (
    match poly_compare_name (Path.name path) with
    | None -> ()
    | Some entry ->
      Hashtbl.replace ctx.handled_heads f.exp_loc ();
      let nolabel =
        List.filter_map
          (function Asttypes.Nolabel, Some a -> Some a | _ -> None)
          args
      in
      let equality = String.equal entry "=" || String.equal entry "<>" in
      let tag_check =
        equality && List.exists constant_constructor nolabel
      in
      let domain =
        match nolabel with
        | a :: _ -> Some a.exp_type
        | [] -> arrow_domain f.exp_type
      in
      (* The apply is checked before traversal descends into its head, so
         honour an allow attribute carried by the head ident here. *)
      let head_allows = allows_of_attrs f.exp_attributes in
      let allowed =
        List.mem "*" head_allows
        || List.mem (Rules.id_to_string Rules.No_poly_compare) head_allows
      in
      (match domain with
      | Some d when (not allowed) && (not tag_check)
                    && not (safe_compare_type d) ->
        emit ctx Rules.No_poly_compare f.exp_loc
          (Printf.sprintf
             "structural (%s) at %s; use a type-specific equal/compare"
             entry (type_name d))
      | _ -> ()))
  | _ -> ()

let rec catch_all : type k. k Typedtree.general_pattern -> bool =
 fun p ->
  match p.pat_desc with
  | Typedtree.Tpat_any -> true
  | Typedtree.Tpat_var _ -> true
  | Typedtree.Tpat_alias (q, _, _) -> catch_all q
  | Typedtree.Tpat_or (a, b, _) -> catch_all a || catch_all b
  | Typedtree.Tpat_value v ->
    catch_all (v :> Typedtree.value Typedtree.general_pattern)
  | _ -> false

let check_protocol_cases :
    type k. ctx -> string -> k Typedtree.case list -> unit =
 fun ctx tyname cases ->
  List.iter
    (fun (c : k Typedtree.case) ->
      if catch_all c.Typedtree.c_lhs then
        emit ctx Rules.Handler_totality c.Typedtree.c_lhs.pat_loc
          (Printf.sprintf
             "catch-all arm in match on protocol type %s; name every \
              constructor so new messages cannot be dropped silently"
             tyname))
    cases

let check_expr ctx (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_ident (path, _, _) ->
    check_ident ctx e.exp_loc (Path.name path) e.exp_type
  | Typedtree.Texp_apply (f, args) -> check_apply ctx f args
  | Typedtree.Texp_match (scrut, cases, _) ->
    if is_protocol_type scrut.exp_type then
      check_protocol_cases ctx (type_name scrut.exp_type) cases
  | Typedtree.Texp_function { cases; _ } -> (
    (* A single binding case is an ordinary lambda over a message; only a
       multi-arm [function] is a dispatch that must be total. *)
    match arrow_domain e.exp_type with
    | Some d when is_protocol_type d && List.length cases > 1 ->
      check_protocol_cases ctx (type_name d) cases
    | _ -> ())
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Traversal                                                           *)
(* ------------------------------------------------------------------ *)

let make_iterator ctx =
  let super = Tast_iterator.default_iterator in
  let scoped attrs f =
    match allows_of_attrs attrs with
    | [] -> f ()
    | ids ->
      ctx.stack <- ids :: ctx.stack;
      Fun.protect
        ~finally:(fun () -> ctx.stack <- List.tl ctx.stack)
        f
  in
  let expr it (e : Typedtree.expression) =
    scoped e.exp_attributes (fun () ->
        check_expr ctx e;
        super.expr it e)
  in
  let value_binding it (vb : Typedtree.value_binding) =
    scoped vb.vb_attributes (fun () -> super.value_binding it vb)
  in
  let structure_item it (si : Typedtree.structure_item) =
    (match si.str_desc with
    | Typedtree.Tstr_attribute a -> (
      match allows_of_attrs [ a ] with
      | [] -> ()
      | ids -> ctx.file_allows <- ids @ ctx.file_allows)
    | _ -> ());
    super.structure_item it si
  in
  { super with expr; value_binding; structure_item }

let check_structure ~source ~fixture str =
  let ctx =
    {
      source;
      fixture;
      stack = [];
      file_allows = [];
      diags = [];
      handled_heads = Hashtbl.create 64;
    }
  in
  let it = make_iterator ctx in
  it.structure it str;
  ctx.diags
