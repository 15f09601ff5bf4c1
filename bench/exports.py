#!/usr/bin/env python3
"""Fail if a value that lib/ exports has no production caller.

    python3 bench/exports.py [lib/X/y.mli ...]

Production code is lib/ (outside the value's own module), bin/, bench/,
examples/ and e2ebench/; test/ is not.  The script copies the repository
to a temporary directory and scans each lib/*/*.mli in its own round:

  1. delete every `val` of that interface, nested signatures included
     (a functor's parameter signature is a requirement, not an export,
     and is left alone);
  2. type-check the production targets in the release profile
     (dune build --profile release @lib/check @bin/check ...);
  3. put back each value the build reports unbound, and go to 2 until the
     build passes;
  4. restore the interface.

Only that one interface differs from the real tree during its round, so
every error names one of its values.  What stays deleted has no production
caller.  Each such value must be on ALLOWED below, with the reason a test
needs it; the script exits 1 on any other, and on an ALLOWED entry that is
stale (the value is gone, or production code now calls it).  A value that a
production file reaches unqualified through an `open` of its module, where
the same name also resolves to something else once it is deleted (say
Stdlib.compare), would look unused; no production file opens a lib/ module
that way today.

With arguments, only those interfaces are scanned, and only their ALLOWED
entries are checked.  The whole scan takes about nine minutes on 2 cores.
"""
import os
import re
import shutil
import subprocess
import sys
import tempfile

TARGETS = ["@lib/check", "@bin/check", "@bench/check", "@examples/check",
           "@e2ebench/check"]

# Exports no production file calls, each with the reason a test needs it.
ALLOWED = {
    # Oracles: what a test holds the production code against.
    "Containment.Check.subset":
        "the one-call containment test the checker's property tests run",
    "Containment.Check.For_tests.subset":
        "the full-width and per-type-split oracles of the normalizer",
    "Query.Eval.subset":
        "the sampled-evaluation oracle of containment verdicts",
    "Query.View.roundtrip":
        "the evaluated Q o V roundtrip that Common.roundtrip_ok checks",
    "Mapping.Fragments.related":
        "the fragment equations evaluated on an instance pair",
    "Mapping.Fragments.equal":
        "tests compare an SMO's or a loader's mapping with the expected one",
    "Edm.Schema.equal":
        "tests compare an evolved or loaded client schema with the expected one",
    "Relational.Schema.equal":
        "tests compare an evolved or loaded store schema with the expected one",
    "Query.View.equal":
        "tests compare a loaded or rebuilt entity view with the expected one",
    # The paper's running example (Examples 1-7), checked figure by figure.
    "Workload.Paper_example.stage3":
        "the paper's stage-3 mapping, the expected result of its SMO",
    "Workload.Paper_example.phi1": "a fragment of the paper's Example 5",
    "Workload.Paper_example.phi1'": "a fragment of the paper's Example 5",
    "Workload.Paper_example.phi2": "a fragment of the paper's Example 5",
    "Workload.Paper_example.phi3": "a fragment of the paper's Example 5",
    "Workload.Paper_example.phi4": "a fragment of the paper's Example 5",
    "Workload.Paper_example.sample_client":
        "the paper's example client state, evaluated against the store one",
    "Workload.Paper_example.sample_store":
        "the paper's example store state, evaluated against the client one",
    # Seams: a step of a production path that tests drive on its own.
    "Containment.Nf.solve": "tests build solved stores to check the solver",
    "Containment.Nf.facts": "tests read a solved store's facts back",
    "Containment.Nf.refine": "tests narrow a store's type facts",
    "Containment.Nf.type_partition":
        "tests check the type split against the per-type oracle",
    "Containment.Nf.Types.of_names": "tests build type sets by name",
    "Containment.Nf.Types.names": "tests read type sets by name",
    "Containment.Nf.Types.mem": "tests ask a type set for one name",
    "Containment.Nf.For_tests.equal_store":
        "tests compare solved stores up to their representation",
    "Query.Simplify.cond":
        "simplify_tree's oracle rebuilds conditions with it, and tests check "
        "its rewrites and that unsat agrees with it",
    "Ivm.Apply.feed":
        "ivm_all_tables propagates step's own feed to every table plan",
    "Ivm.Engine.For_tests.table_delta":
        "ivm_all_tables runs the engine's per-table rule on every plan",
    "Exec.Planner.prepared": "test_exec checks the prepared-plan cache's size",
    "Exec.Planner.prepared_cap":
        "test_exec checks the prepared-plan cache stays under its cap",
    "Relational.Instance.tables":
        "tests check which tables a maintained store image holds",
    # Printers and parsers of the DSL round trips and of test messages.
    "Surface.Parser.condition":
        "tests parse a condition alone, the inverse of Print_dsl.cond",
    "Surface.Print_dsl.cond": "the DSL round trip of conditions",
    "Surface.Print_dsl.model": "the DSL round trip of models",
    "Surface.Print_dsl.smo": "the DSL round trip of SMO scripts",
    "Lint.Diag.pp": "tests compare and report diagnostics as lines",
}

# Arguments a production caller passes but the library ignores, each with
# the reason it stays.  The script fails if one is gone from its val.
IGNORED_ARGUMENTS = {
    ("Exec.Run.rows", "jobs"):
        "e2ebench's serve workload passes ~jobs:1",
    ("Fullc.Compile.compile", "jobs"):
        "e2ebench's workloads pass ~jobs:1",
    ("Core.Session.apply", "jobs"):
        "e2ebench's edit and session workloads pass ~jobs:1",
}

KEYWORDS = {"val", "type", "module", "exception", "include", "open",
            "external", "class", "end", "sig", "functor"}


def mask(text):
    """text with comments and string/char literals blanked, newlines kept."""
    out = list(text)
    i, n, depth = 0, len(text), 0

    def blank(a, b):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    def string_end(j):
        j += 1
        while j < n and text[j] != '"':
            j += 2 if text[j] == "\\" else 1
        return j + 1

    start = 0
    while i < n:
        if text.startswith("(*", i):
            if depth == 0:
                start = i
            depth += 1
            i += 2
        elif depth and text.startswith("*)", i):
            depth -= 1
            i += 2
            if depth == 0:
                blank(start, i)
        elif text[i] == '"':
            j = string_end(i)
            if depth == 0:
                blank(i, j)
            i = j
        elif depth == 0 and re.match(r"'(\\.|[^\\'])'", text[i:i + 4]):
            j = text.index("'", i + 2) + 1
            blank(i, j)
            i = j
        else:
            i += 1
    return "".join(out)


def vals(text):
    """[(nested path, name, start, end)] of the vals text exports.

    [start, end) runs from the `val` keyword to the next item, so it takes
    the val's trailing doc comment with it."""
    masked = mask(text)
    tokens = [(m.group(0), m.start())
              for m in re.finditer(r"[A-Za-z_][A-Za-z0-9_']*|[():=]", masked)]
    found, stack, pending = [], [], None
    # stack: a name per open sig (None for a functor parameter's).
    for k, (tok, pos) in enumerate(tokens):
        if tok == "module":
            nxt = tokens[k + 1][0] if k + 1 < len(tokens) else ""
            pending = tokens[k + 2][0] if nxt == "type" else nxt
        elif tok == "sig":
            param = k > 0 and tokens[k - 1][0] == ":" and k > 2 \
                and tokens[k - 3][0] == "("
            stack.append(None if param else pending)
        elif tok == "end" and stack:
            stack.pop()
        elif tok == "val" and None not in stack:
            name = tokens[k + 1][0]
            end = next((p for t, p in tokens[k + 2:] if t in KEYWORDS),
                       len(text))
            found.append((tuple(stack), name, pos, end))
    return found


def module_name(mli):
    lib = os.path.basename(os.path.dirname(mli))
    mod = os.path.basename(mli)[:-len(".mli")]
    parts = [lib.capitalize()]
    if mod != lib:
        parts.append(mod.capitalize())
    return ".".join(parts)


def build(root):
    """The release type-check's output, or None when it passes."""
    r = subprocess.run(["dune", "build", "--root", root, "--profile", "release",
                        "--display", "quiet"] + TARGETS,
                       cwd=root, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, text=True)
    return None if r.returncode == 0 else r.stdout


def blanked(text, spans):
    out = list(text)
    for a, b in spans:
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "
    return "".join(out)


def culprits(exported, path):
    """The vals an `Unbound value path` error can mean."""
    parts = path.split(".")
    named = [v for v in exported if v[1] == parts[-1]]
    prefix = parts[-2] if len(parts) > 1 else None
    nested = [v for v in named if v[0] and v[0][-1] == prefix]
    top = [v for v in named if not v[0]]
    return nested or top or named


def scan(root, mli):
    """The vals of mli that no production file calls."""
    full = os.path.join(root, mli)
    with open(full) as f:
        text = f.read()
    exported = vals(text)
    deleted = list(exported)
    try:
        while True:
            with open(full, "w") as f:
                f.write(blanked(text, [(a, b) for _, _, a, b in deleted]))
            out = build(root)
            if out is None:
                return deleted
            unbound = re.findall(r"Error: Unbound value ([A-Za-z0-9_.']+)", out)
            back = {v for p in unbound for v in culprits(deleted, p)}
            if not back:
                sys.exit(f"{mli}: unexpected build error\n{out}")
            deleted = [v for v in deleted if v not in back]
    finally:
        with open(full, "w") as f:
            f.write(text)


def exports(root, mli):
    """{qualified name: val text} of the vals mli exports."""
    with open(os.path.join(root, mli)) as f:
        text = f.read()
    mod = module_name(mli)
    return {".".join((mod,) + p + (n,)): text[a:b] for p, n, a, b in vals(text)}


def main(args):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    lib = os.path.join(repo, "lib")
    every = sorted(
        os.path.join("lib", d, f) for d in os.listdir(lib)
        if os.path.isdir(os.path.join(lib, d))
        for f in os.listdir(os.path.join(lib, d)) if f.endswith(".mli"))
    mlis = args or every
    exported = {}
    for mli in every:
        exported.update({name: (mli, text)
                         for name, text in exports(repo, mli).items()})
    problems = [f"{name}: ignores ?{arg} no longer"
                for (name, arg) in sorted(IGNORED_ARGUMENTS)
                if name in exported and mli_scanned(exported[name][0], mlis)
                and f"?{arg}:" not in exported[name][1]]
    problems += [f"{name}: allowed but no longer exported"
                 for name in sorted(ALLOWED) if name not in exported]
    tmp = tempfile.mkdtemp(prefix="exports-")
    try:
        root = os.path.join(tmp, "repo")
        shutil.copytree(repo, root, ignore=shutil.ignore_patterns(
            "_build", ".git", "_opam"))
        out = build(root)
        if out is not None:
            sys.exit(f"the production targets do not build\n{out}")
        unused = {}
        for mli in mlis:
            mod = module_name(mli)
            for p, n, _, _ in scan(root, mli):
                unused[".".join((mod,) + p + (n,))] = mli
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    problems += [f"{name} ({mli}): no production caller and not allowed"
                 for name, mli in sorted(unused.items()) if name not in ALLOWED]
    problems += [f"{name}: allowed but production code calls it"
                 for name in sorted(ALLOWED)
                 if name in exported and mli_scanned(exported[name][0], mlis)
                 and name not in unused]
    for name in sorted(unused):
        print(f"{name}: {ALLOWED.get(name, 'NOT ALLOWED')}")
    for p in problems:
        print(p)
    print(f"{len(mlis)} interfaces, "
          f"{sum(mli_scanned(m, mlis) for m, _ in exported.values())} vals, "
          f"{len(unused)} without a production caller, "
          f"{len(problems)} problems")
    return 1 if problems else 0


def mli_scanned(mli, mlis):
    return os.path.normpath(mli) in {os.path.normpath(m) for m in mlis}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
