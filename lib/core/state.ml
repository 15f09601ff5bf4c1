type t = {
  env : Query.Env.t;
  fragments : Mapping.Fragments.t;
  query_views : Query.View.query_views;
  update_views : Query.View.update_views;
}

let of_compiled env fragments st = { st with env; fragments }
