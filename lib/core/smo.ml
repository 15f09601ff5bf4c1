type t =
  | Add_entity of {
      entity : Edm.Entity_type.t;
      alpha : string list;
      p_ref : string option;
      table : Relational.Table.t;
      fmap : (string * string) list;
    }
  | Add_entity_part of {
      entity : Edm.Entity_type.t;
      p_ref : string option;
      parts : Add_entity_part.part list;
    }
  | Add_entity_tph of {
      entity : Edm.Entity_type.t;
      table : string;
      fmap : (string * string) list;
      discriminator : string * Datum.Value.t;
    }
  | Add_assoc_fk of {
      assoc : Edm.Association.t;
      table : string;
      fmap : (string * string) list;
    }
  | Add_assoc_jt of {
      assoc : Edm.Association.t;
      table : Relational.Table.t;
      fmap : (string * string) list;
    }
  | Add_property of {
      etype : string;
      attr : string * Datum.Domain.t;
      target : Add_property.target;
    }
  | Drop_entity of { etype : string }
  | Drop_association of { assoc : string }
  | Drop_property of { etype : string; attr : string }
  | Widen_attribute of { etype : string; attr : string; domain : Datum.Domain.t }
  | Set_multiplicity of {
      assoc : string;
      mult : Edm.Association.multiplicity * Edm.Association.multiplicity;
    }
  | Refactor of { assoc : string }

let name = function
  | Add_entity { p_ref = None; _ } -> "AE-TPC"
  | Add_entity { p_ref = Some _; _ } -> "AE-TPT"
  | Add_entity_part { parts; _ } ->
      let k = List.length parts in
      let rec log2 n p = if p >= k then (if p = k then Some n else None) else log2 (n + 1) (2 * p) in
      (match log2 1 2 with Some n -> Printf.sprintf "AEP-%dp" n | None -> Printf.sprintf "AEP-%dparts" k)
  | Add_entity_tph _ -> "AE-TPH"
  | Add_assoc_fk _ -> "AA-FK"
  | Add_assoc_jt _ -> "AA-JT"
  | Add_property _ -> "AP"
  | Drop_entity _ -> "DROP"
  | Drop_association _ -> "DROP-A"
  | Drop_property _ -> "DROP-P"
  | Widen_attribute _ -> "WIDEN"
  | Set_multiplicity _ -> "MULT"
  | Refactor _ -> "REFACTOR"

let pp fmt t =
  match t with
  | Add_entity { entity; p_ref; table; _ } ->
      Format.fprintf fmt "%s(%s -> %s, P=%s)" (name t) entity.Edm.Entity_type.name
        table.Relational.Table.name
        (Option.value ~default:"NIL" p_ref)
  | Add_entity_part { entity; parts; _ } ->
      Format.fprintf fmt "%s(%s -> {%s})" (name t) entity.Edm.Entity_type.name
        (String.concat ","
           (List.map
              (fun p -> p.Add_entity_part.part_table.Relational.Table.name)
              parts))
  | Add_entity_tph { entity; table; discriminator = d, v; _ } ->
      Format.fprintf fmt "%s(%s -> %s, %s=%s)" (name t) entity.Edm.Entity_type.name table d
        (Datum.Value.to_literal v)
  | Add_assoc_fk { assoc; table; _ } ->
      Format.fprintf fmt "%s(%s -> %s)" (name t) assoc.Edm.Association.name table
  | Add_assoc_jt { assoc; table; _ } ->
      Format.fprintf fmt "%s(%s -> %s)" (name t) assoc.Edm.Association.name
        table.Relational.Table.name
  | Add_property { etype; attr = a, _; _ } -> Format.fprintf fmt "%s(%s.%s)" (name t) etype a
  | Drop_entity { etype } -> Format.fprintf fmt "%s(%s)" (name t) etype
  | Drop_association { assoc } -> Format.fprintf fmt "%s(%s)" (name t) assoc
  | Drop_property { etype; attr } -> Format.fprintf fmt "%s(%s.%s)" (name t) etype attr
  | Widen_attribute { etype; attr; domain } ->
      Format.fprintf fmt "%s(%s.%s : %a)" (name t) etype attr Datum.Domain.pp domain
  | Set_multiplicity { assoc; mult = m1, m2 } ->
      Format.fprintf fmt "%s(%s, %a to %a)" (name t) assoc Edm.Association.pp_multiplicity m1
        Edm.Association.pp_multiplicity m2
  | Refactor { assoc } -> Format.fprintf fmt "%s(%s)" (name t) assoc

let show t = Format.asprintf "%a" pp t
