"""Command-line interface: a line-oriented matroid file format, named
construction recipes, and commands for analysis and verification.

File grammar (one directive per line, '#' starts a comment):

    name <token>
    elements <label>+            at most 24 labels
    rank <int>                   required with nonspanning_circuits
    bases {a,b} {a,c} ...        one of bases / circuits /
    circuits {...} ...           nonspanning_circuits, lines may repeat
    nonspanning_circuits {...} ...
"""

from __future__ import annotations

import argparse
import functools
import sys

from .core import (Matroid, MatroidError, _masks_of_size,
                   _packed_down_closed, bit, is_isomorphic, lex_key, popcount,
                   validate)
from .builders import (delta_wye, fano, modular_cut_extension, nonfano,
                       parallel_add, parallel_connection, paving, paving8,
                       paving8_ext, principal_extension, relax, series_add,
                       spike, spiked_fano, twisted_cube_matroid, uniform,
                       wheel, whirl, wye_delta)
from .connectivity import _lambda_sets, is_3_connected
from .structures import (SPECIAL_SEPARATORS, detect_spike_like,
                         detect_twisted_cube_like, fans, flans, triads,
                         triangles)
from .minors import detachable_after_exchange, detachable_pairs
from . import harness
from .corpus import elongated_quad_glued, generate_corpus


class ParseError(MatroidError):
    def __init__(self, lineno, reason):
        super().__init__(f"line {lineno}: {reason}")
        self.lineno = lineno
        self.reason = reason


# ---------------------------------------------------------------------------
# parse / serialize

def _parse_sets(tokens, bits, lineno):
    """The masks of the set literals `{a,b,...}`, with `bits` mapping each
    label to its bit, so a label named twice sets its bit once."""
    out = []
    for tok in tokens:
        if tok[0] != "{" or tok[-1] != "}":
            raise ParseError(lineno, f"expected a set literal, got {tok!r}")
        m = 0
        if len(tok) > 2:
            try:
                for lab in tok[1:-1].split(","):
                    m |= bits[lab]
            except KeyError as exc:
                raise ParseError(
                    lineno, f"unknown element {exc.args[0]!r}") from None
        out.append(m)
    return out


def _check_labels(labels, lineno):
    """Reject a label that no file can hold: ',' splits a set literal and
    '#' starts a comment."""
    for lab in labels:
        if "," in lab or "#" in lab:
            raise ParseError(lineno, f"label {lab!r} holds ',' or '#'")


def parse(text: str) -> tuple[str, Matroid]:
    name = None
    labels = None
    rank = None
    body_kind = None
    sets: list[int] = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key, rest = tokens[0], tokens[1:]
        if key in seen and key in ("name", "elements", "rank"):
            raise ParseError(lineno, f"repeated {key} directive")
        seen.add(key)
        if key == "name":
            if len(rest) != 1:
                raise ParseError(lineno, "name takes one token")
            name = rest[0]
        elif key == "elements":
            if not 1 <= len(rest) <= 24:
                raise ParseError(lineno, "need between 1 and 24 labels")
            if len(set(rest)) != len(rest):
                raise ParseError(lineno, "duplicate labels")
            _check_labels(rest, lineno)
            labels = rest
            bits = {lab: 1 << i for i, lab in enumerate(labels)}
        elif key == "rank":
            if len(rest) != 1 or not rest[0].isdecimal():
                raise ParseError(lineno, "rank takes one integer")
            rank = int(rest[0])
        elif key in ("bases", "circuits", "nonspanning_circuits"):
            if labels is None:
                raise ParseError(lineno, "elements must come before the body")
            if body_kind not in (None, key):
                raise ParseError(lineno, "mixed body kinds")
            body_kind = key
            sets.extend(_parse_sets(rest, bits, lineno))
        else:
            raise ParseError(lineno, f"unknown directive {key!r}")
    if name is None or labels is None or body_kind is None:
        raise ParseError(0, "need name, elements and a body")
    n = len(labels)
    if body_kind == "bases":
        m = validate(sets, n, labels)
    elif body_kind == "nonspanning_circuits":
        if rank is None:
            raise ParseError(0, "nonspanning_circuits needs a rank directive")
        m = paving(rank, n, sets, labels)
    else:
        m = _from_circuits(sets, n, labels)
    return name, m


def _from_circuits(circuits, n, labels) -> Matroid:
    """The matroid whose independent sets hold no listed non-empty set:
    greedy rank, then the r-sets that hold none.  X holds C exactly when
    E - X lies inside E - C: when the flag of E - X is set in
    `_packed_down_closed` over the complements, read packed as bytes."""
    full = (1 << n) - 1
    flags = _packed_down_closed(n, (full ^ c for c in circuits if c)).view("B")

    def flag(y):
        return flags[y >> 3] >> (y & 7) & 1

    ind = 0
    for e in range(n):
        if not flag(full ^ (ind | bit(e))):
            ind |= bit(e)
    sets = _masks_of_size(n, popcount(ind))
    bases = sets[flag(full ^ sets) == 0].tolist()
    del flags  # so that the table build finds these words gone
    return validate(bases, n, labels)


def serialize(m: Matroid, name: str) -> str:
    _check_labels(m.labels, 2)  # the file's elements line
    lines = [f"name {name}", "elements " + " ".join(m.labels)]
    ordered = sorted(m.bases, key=lex_key)
    for i in range(0, len(ordered), 8):
        chunk = ordered[i:i + 8]
        lines.append("bases " + " ".join(m.fmt(b) for b in chunk))
    return "\n".join(lines) + "\n"


def _load(path: str) -> tuple[str, Matroid]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


# ---------------------------------------------------------------------------
# commands

def cmd_analyze(args) -> int:
    name, m = _load(args.file)
    rec = args.format == "records"
    tris = [m.fmt(x) for x in triangles(m)]
    trds = [m.fmt(x) for x in triads(m)]
    three = is_3_connected(m)
    # M and M* have ranks r and n - r, so only 2r = n needs the dual
    selfdual = 2 * m.rank == m.n and is_isomorphic(m, m.dual()) is not None

    if rec:
        print(f"kind=summary name={name} n={m.n} rank={m.rank} "
              f"bases={len(m.bases)} three_connected={int(three)} "
              f"self_dual={int(selfdual)}")
    else:
        print(f"name {name}")
        print(f"elements {m.n} rank {m.rank} bases {len(m.bases)}")
        print(f"3-connected {'yes' if three else 'no'}")
        print(f"self-dual {'yes' if selfdual else 'no'}")

    def orders(find):
        return ["(" + ",".join(m.labels[e] for e in f.elements) + ")"
                for f in find(m)] if three else []

    for kind, key, items in (("triangle", "set", tris), ("triad", "set", trds),
                             ("fan", "order", orders(fans)),
                             ("flan", "order", orders(flans))):
        if rec:
            for item in items:
                print(f"kind={kind} {key}={item}")
        else:
            print(f"{kind}s {' '.join(items) or 'none'}")
    return 0


def _result_line(m: Matroid, res, rec: bool) -> str:
    pair = "{" + ",".join(m.labels[e] for e in res.pair) + "}"
    if rec:
        line = f"kind=detachable mode={res.mode} pair={pair} stage={res.stage}"
        if res.exchanged is not None:
            line += f" exchanged={m.fmt(res.exchanged)}"
        return line
    line = f"{res.mode} {pair}"
    if res.exchanged is not None:  # "after-delta-wye" -> "after delta-wye"
        line += f" {res.stage.replace('-', ' ', 1)} {m.fmt(res.exchanged)}"
    return line


def cmd_detachable(args) -> int:
    _, m = _load(args.file)
    _, n_mat = _load(args.minor)
    results = detachable_pairs(m, n_mat)
    if args.exchange:
        results += detachable_after_exchange(m, n_mat)
    rec = args.format == "records"
    if not results:
        print("kind=none" if rec else "none")
        return 0
    for res in results:
        print(_result_line(m, res, rec))
    return 0


def cmd_separators(args) -> int:
    _, m = _load(args.file)
    rec = args.format == "records"
    lines = []
    # every exact 3-separating set of at least six elements, ascending
    for x in _lambda_sets(m, lambda lam, size: (lam == 2) & (size >= 6)):
        k = popcount(x)
        if k == 6:
            for kind, det in (("twisted-cube-like", detect_twisted_cube_like),
                              *SPECIAL_SEPARATORS):
                hit = det(m, x)
                if hit is None:
                    continue
                lab = hit.witness["labelling"]
                assign = " ".join(f"{k2}={m.labels[v]}"
                                  for k2, v in sorted(lab.items()))
                if rec:
                    lines.append(f"kind={kind} support={m.fmt(x)} {assign}")
                else:
                    lines.append(f"{kind} {m.fmt(x)} {assign}")
        if k % 2 == 0:
            hit = detect_spike_like(m, x)
            if hit is not None:
                legs = " ".join(m.fmt(l) for l in hit.witness["legs"])
                if rec:
                    lines.append(f"kind=spike-like support={m.fmt(x)} legs={legs}")
                else:
                    lines.append(f"spike-like {m.fmt(x)} legs {legs}")
    if not lines:
        print("kind=none" if rec else "none")
        return 0
    for line in sorted(lines):
        print(line)
    return 0


def cmd_verify(args) -> int:
    rec = args.format == "records"
    rc = 0
    if args.id == "registry":
        corpus = generate_corpus(args.seed, max_n=args.max_n)
        verdicts = harness.run_lemma_registry(corpus)
        summary = harness.registry_summary(verdicts)
        for line in harness.summary_lines(summary):
            print(line)
        if any(s["fail"] for s in summary.values()):
            rc = 1
        for v in verdicts:
            if v.outcome == "fail" or rec:
                print(v.line())
    elif args.id == "constructions":
        for fn in (harness.verify_construction_twisted,
                   harness.verify_construction_spike):
            try:
                v = fn()
                print(v.line())
            except harness.ConstructionFailed as exc:
                print(f"check=construction outcome=fail witness={exc}")
                rc = 1
    elif args.id in ("triangles", "main"):
        if len(args.files) != 2:
            raise MatroidError("need a matroid file and a minor file")
        _, m = _load(args.files[0])
        _, n_mat = _load(args.files[1])
        fn = (harness.verify_theorem_triangles if args.id == "triangles"
              else harness.verify_theorem_main)
        v = fn(m, n_mat)
        v.instance = f"{args.files[0]}|{args.files[1]}"
        print(v.line())
        rc = 1 if v.outcome == "fail" else 0
    elif args.id == "splitter":
        corpus = generate_corpus(args.seed, max_n=args.max_n)
        for v in harness.splitter_check(corpus, max_m=args.max_n):
            if v.outcome == "fail" or rec:
                print(v.line())
            rc |= v.outcome == "fail"
        print(f"check=splitter done=1")
    elif args.id == "foundation":
        corpus = generate_corpus(args.seed, max_n=args.max_n)
        verdicts = harness.sweep_foundation(corpus, max_m=args.max_n)
        for v in verdicts:
            print(v.line())
            rc |= v.outcome == "fail"
        if not verdicts:
            print("check=foundation outcome=vacuous  # nothing qualified")
    else:
        raise MatroidError(f"unknown verify id {args.id!r}")
    return int(rc)


_RECIPES = {
    "fano": fano,
    "nonfano": nonfano,
    "paving8": paving8,
    "paving8ext": paving8_ext,
    "twistedcube": twisted_cube_matroid,
    "spikedfano": lambda: spiked_fano(4),
    "spikedfano-free": lambda: spiked_fano(4, True),
    "elongquadglued": elongated_quad_glued,
}


def _sets_of(m: Matroid, tokens) -> list[int]:
    bits = {lab: 1 << i for i, lab in enumerate(m.labels)}
    return _parse_sets(tokens, bits, 0)


def cmd_construct(args) -> int:
    head, *rest = args.recipe.split() or [""]
    if head in _RECIPES and not rest:
        name, m = head, _RECIPES[head]()
    elif head == "uniform" and len(rest) == 2:
        r, n = int(rest[0]), int(rest[1])
        name, m = f"u{r}{n}", uniform(r, n)
    elif head in ("wheel", "whirl", "spike") and len(rest) == 1:
        r = int(rest[0])
        m = {"wheel": wheel, "whirl": whirl, "spike": spike}[head](r)
        name = f"{head}{r}"
    elif head == "dual" and len(rest) == 1:
        base_name, m0 = _load(rest[0])
        name, m = f"{base_name}-dual", m0.dual()
    elif head in ("relax", "deltawye", "wyedelta") and len(rest) == 2:
        base_name, m0 = _load(rest[0])
        op = {"relax": relax, "deltawye": delta_wye,
              "wyedelta": wye_delta}[head]
        m = op(m0, _sets_of(m0, rest[1:])[0])
        name = f"{base_name}-{head}"
    elif head in ("paralleladd", "seriesadd") and len(rest) == 3:
        base_name, m0 = _load(rest[0])
        op = parallel_add if head == "paralleladd" else series_add
        m = op(m0, m0.id_of(rest[1]), rest[2])
        name = f"{base_name}-{head}"
    elif head == "principalext" and len(rest) == 3:
        base_name, m0 = _load(rest[0])
        flat = _sets_of(m0, rest[1:2])[0]
        m = principal_extension(m0, flat, rest[2])
        name = f"{base_name}-ext"
    elif head == "modularcutext" and len(rest) >= 3:
        base_name, m0 = _load(rest[0])
        flats = _sets_of(m0, rest[2:])
        m = modular_cut_extension(m0, flats, rest[1])
        name = f"{base_name}-ext"
    elif head == "parallelconn" and len(rest) == 3:
        name1, m1 = _load(rest[0])
        name2, m2 = _load(rest[1])
        t_labels = rest[2].strip("{}").split(",")
        m = parallel_connection(m1, m2, t_labels)
        name = f"{name1}-{name2}"
    else:
        raise MatroidError(f"unknown recipe {args.recipe!r}")
    sys.stdout.write(serialize(m, name))
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises on a usage error, so it reaches `main` as one error line."""

    def error(self, message):
        raise MatroidError(message)


@functools.cache
def _parser() -> _Parser:
    ap = _Parser(
        prog="matroidkit",
        description="exact structure analysis for desk-scale matroids")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("analyze", help="rank, connectivity and substructures")
    p.add_argument("file")

    p = sub.add_parser("detachable", help="pairs keeping 3-connectivity and a minor")
    p.add_argument("file")
    p.add_argument("--minor", required=True)
    p.add_argument("--exchange", action="store_true")

    p = sub.add_parser("separators", help="special 3-separators of a matroid")
    p.add_argument("file")

    p = sub.add_parser("verify", help="run registry or theorem verifiers")
    p.add_argument("id")
    p.add_argument("files", nargs="*")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-n", type=int, default=12, dest="max_n")

    p = sub.add_parser("construct", help="emit a named construction as a file")
    p.add_argument("recipe")

    for p in sub.choices.values():
        p.add_argument("--format", choices=("text", "records"), default="text")
    return ap


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return {"analyze": cmd_analyze, "detachable": cmd_detachable,
                "separators": cmd_separators, "verify": cmd_verify,
                "construct": cmd_construct}[args.cmd](args)
    except (MatroidError, ValueError, OSError) as exc:
        # bad numbers, unknown labels, oversize grounds and unreadable files
        # are input errors too, never tracebacks
        print(f"error={type(exc).__name__} detail={exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
