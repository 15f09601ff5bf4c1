type multiplicity = One | Zero_or_one | Many [@@deriving eq, show { with_path = false }]

type t = {
  name : string;
  end1 : string;
  end2 : string;
  mult1 : multiplicity;
  mult2 : multiplicity;
}
[@@deriving eq]

let qualify ~etype a = etype ^ "." ^ a
let end1_columns t ~key = List.map (qualify ~etype:t.end1) key
let end2_columns t ~key = List.map (qualify ~etype:t.end2) key
