type t = {
  env : Query.Env.t;
  fragments : Mapping.Fragments.t;
  query_views : Query.View.query_views;
  update_views : Query.View.update_views;
}

let of_compiled env fragments (c : Fullc.Compile.t) =
  {
    env;
    fragments;
    query_views = c.Fullc.Compile.query_views;
    update_views = c.Fullc.Compile.update_views;
  }

let bootstrap env fragments =
  Result.map (of_compiled env fragments) (Fullc.Compile.compile env fragments)
