(* The containment checker before its atoms were narrowed: every scan and
   every implied entity atom binds every column of its source.  Tests hold
   [Containment.Check.subset] (atoms bind only the columns the obligation
   observes, widened on the subset side by what the superset side binds)
   against it, verdict for verdict. *)

let subset env q1 q2 = Containment.Check.For_tests.subset ~full_width:true env q1 q2
