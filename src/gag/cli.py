"""Command line front end.

Subcommands: check (law profile), ideals (family listings), intra
(witness listing), verify (theorem suite), search (enumeration and
counterexample hunts), canon (canonical form).  Models are read from a
file path, from stdin via `-`, or from the bundled five-element example
via the token `@paper-example`.

Exit codes: 0 ok/pass; 2 a theorem check failed (or a hunt found a
counterexample); 3 guard or axiom failure; 64 usage; 65 unreadable or
malformed input, or a search beyond the canonicalization guard; 141
stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _json_str
from typing import Optional, Sequence

from .fileformat import (
    ModelFormatError,
    model_to_json_obj,
    parse_model,
    serialize_model,
)
from .fixtures import PAPER_EXAMPLE_TOKEN, paper_example_text
from .ideals import IdealKind, generated_ideal, ideal_family
from .model import (
    GammaGroupoid,
    axiom_profile,
    is_ag_star_star,
    is_left_invertive,
    is_medial,
    is_paramedial,
)
from .regularity import format_witness, is_intra_regular
from .search import (
    AXIOM_SETS,
    FILTER_NAMES,
    SearchSpec,
    SizeGuardError,
    canonical_model,
    count_models,
    enumerate_models,
    find_counterexample,
    hunt_to_json_obj,
    search_to_json_obj,
)
from .subsets import EmptySubsetError, Subset
from .theorems import (
    SKIPPED,
    TheoremId,
    format_report_table,
    run_suite,
    suite_exit_code,
    suite_to_json_obj,
)

EX_USAGE = 64
EX_DATA = 65
EX_SIGPIPE = 141  # 128 + SIGPIPE, the status of a shell pipeline's closed writer


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EX_USAGE)


def _read_utf8(fh, name: str) -> str:
    # a stream decoding with surrogateescape (stdin under the C locale)
    # turns bad bytes into lone surrogates instead of raising
    try:
        text = fh.read()
        text.encode("utf-8")
    except UnicodeDecodeError as e:
        raise ModelFormatError(f"{name}: not UTF-8 text ({e.reason} at byte {e.start})") from None
    except UnicodeEncodeError as e:
        raise ModelFormatError(f"{name}: not UTF-8 text (undecodable byte at character {e.start})") from None
    return text


def _load_model(ref: str) -> GammaGroupoid:
    if ref == PAPER_EXAMPLE_TOKEN:
        return parse_model(paper_example_text())
    if ref == "-":
        return parse_model(_read_utf8(sys.stdin, "<stdin>"))
    with open(ref, "r", encoding="utf-8") as fh:
        return parse_model(_read_utf8(fh, ref))


@lru_cache(maxsize=None)
def _json_pads(depth: int) -> tuple[str, str, str, str, str]:
    """Openers, separator and closers of a container at this depth, made
    once per depth so that no container allocates its own."""
    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    return "[" + inner, "{" + inner, "," + inner, outer + "]", outer + "}"


def _write_json(obj, out: list[str], depth: int = 0) -> None:
    """Append the text json.dumps(obj, indent=2) gives to out, for dicts
    with str keys, lists, tuples, str, int, bool and None; anything else,
    float included, raises TypeError.  A plain function, not a closure:
    one that refers to itself is a reference cycle left to the collector."""
    if isinstance(obj, str):
        out.append(_json_str(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        _, sep, between, _, close = _json_pads(depth)
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep)
            out.append(_json_str(key))
            out.append(": ")
            _write_json(value, out, depth + 1)
            sep = between
        out.append(close)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        sep, _, between, close, _ = _json_pads(depth)
        for value in obj:
            out.append(sep)
            _write_json(value, out, depth + 1)
            sep = between
        out.append(close)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit_json(obj) -> None:
    out: list[str] = []
    _write_json(obj, out)
    out.append("\n")
    sys.stdout.write("".join(out))


_LAW_VARS = {
    "left-invertive": (("x", "y", "z"), ("gamma", "delta")),
    "medial": (("x", "y", "l", "m"), ("alpha", "beta", "gamma")),
    "ag-star-star": (("x", "y", "z"), ("alpha", "beta")),
    "paramedial": (("x", "y", "l", "m"), ("alpha", "beta", "gamma")),
}


def _witness_parts(g: GammaGroupoid, law: str, w: tuple[int, ...]) -> dict[str, str]:
    el_names, op_names = _LAW_VARS[law]
    parts = {}
    for name, v in zip(el_names, w[: len(el_names)]):
        parts[name] = g.element_labels[v]
    for name, v in zip(op_names, w[len(el_names) :]):
        parts[name] = g.gamma_labels[v]
    return parts


_DECIDERS = {
    "left-invertive": is_left_invertive,
    "medial": is_medial,
    "ag-star-star": is_ag_star_star,
    "paramedial": is_paramedial,
}


def cmd_check(args) -> int:
    g = _load_model(args.model)
    profile = axiom_profile(g)
    verdicts = profile.to_json_obj()
    # a law's decider runs again only where the law fails, for its witness
    bad = {law: _witness_parts(g, law, decide(g).witness)
           for law, decide in _DECIDERS.items() if not verdicts[law]}
    if args.json:
        obj = {"model": model_to_json_obj(g), "profile": verdicts}
        if bad:
            obj["counterexamples"] = bad
        _emit_json(obj)
    else:
        print("elements:", " ".join(g.element_labels))
        print("gammas:", " ".join(g.gamma_labels))
        for law in _DECIDERS:
            line = f"{law}: {str(verdicts[law]).lower()}"
            if law in bad:
                line += "  [" + " ".join(f"{k}={v}" for k, v in bad[law].items()) + "]"
            print(line)
        ids = [g.element_labels[e] for e in profile.left_identities]
        print("left-identities:", " ".join(ids) if ids else "none")
    return 0 if profile.left_invertive else 3


def _print_family(g: GammaGroupoid, kind: IdealKind, fam) -> None:
    print(f"{kind.value} ({len(fam)}):")
    for a in fam:
        print(f"  {a.format(g.element_labels)}")


def _family_json(g: GammaGroupoid, fam) -> list[list[str]]:
    return [[g.element_labels[e] for e in a.members()] for a in fam]


def _coinciding_groups(families: dict[IdealKind, tuple]) -> list[list[str]]:
    by_ext: dict[tuple, list[str]] = {}
    for kind in IdealKind:
        ext = tuple(a.members() for a in families[kind])
        by_ext.setdefault(ext, []).append(kind.value)
    return [grp for grp in by_ext.values() if len(grp) > 1]


def _parse_seed(g: GammaGroupoid, values: Sequence[str]) -> Subset:
    # a value that is a label names that element, so labels may hold commas
    members = []
    for value in values:
        for name in [value] if value in g.element_labels else value.split(","):
            name = name.strip()
            if name not in g.element_labels:
                raise ModelFormatError(f"unknown element {name!r} in --generated-from")
            members.append(g.element_labels.index(name))
    return Subset.from_members(g.n, members)


def _dot_containment(g: GammaGroupoid, fam) -> str:
    # Hasse diagram: edge A -> B when A < B with nothing strictly between
    def node(a: Subset) -> str:
        text = a.format(g.element_labels).replace("\\", "\\\\").replace('"', '\\"')
        return f'"{text}"'

    lines = ["digraph ideals {", "  rankdir=BT;"]
    for a in fam:
        lines.append(f"  {node(a)};")
    for a in fam:
        for b in fam:
            if a < b and not any(a < c < b for c in fam):
                lines.append(f"  {node(a)} -> {node(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_ideals(args) -> int:
    g = _load_model(args.model)
    if args.generated_from is not None:
        if args.kind not in ("left", "right", "two-sided"):
            raise UsageError("--generated-from needs --kind left, right or two-sided")
        if args.dot:
            raise UsageError("--dot lists a family, not a --generated-from ideal")
        seed = _parse_seed(g, args.generated_from)
        gen = generated_ideal(g, IdealKind(args.kind), seed)
        if args.json:
            _emit_json(
                {
                    "kind": args.kind,
                    "seed": [g.element_labels[e] for e in seed.members()],
                    "generated": [g.element_labels[e] for e in gen.members()],
                }
            )
        else:
            print(
                f"generated {args.kind} ideal of {seed.format(g.element_labels)}:",
                gen.format(g.element_labels),
            )
        return 0

    if args.kind == "all":
        if args.dot:
            raise UsageError("--dot needs a single --kind, not all")
        families = {kind: ideal_family(g, kind) for kind in IdealKind}
        if args.json:
            _emit_json(
                {
                    "families": {k.value: _family_json(g, families[k]) for k in IdealKind},
                    "coinciding": _coinciding_groups(families),
                }
            )
        else:
            for kind in IdealKind:
                _print_family(g, kind, families[kind])
            for grp in _coinciding_groups(families):
                print("coinciding:", " = ".join(grp))
        return 0

    if args.dot and args.json:
        raise UsageError("--dot and --json are two output formats; give one")
    kind = IdealKind(args.kind)
    fam = ideal_family(g, kind)
    if args.dot:
        sys.stdout.write(_dot_containment(g, fam))
    elif args.json:
        _emit_json({"kind": kind.value, "family": _family_json(g, fam)})
    else:
        _print_family(g, kind, fam)
    return 0


def cmd_intra(args) -> int:
    g = _load_model(args.model)
    report = is_intra_regular(g)
    if args.json:
        witnesses = {}
        for a, w in enumerate(report.witnesses):
            if w is None:
                witnesses[g.element_labels[a]] = None
            else:
                witnesses[g.element_labels[a]] = {
                    "x": g.element_labels[w.x],
                    "y": g.element_labels[w.y],
                    "beta": g.gamma_labels[w.beta],
                    "delta": g.gamma_labels[w.delta],
                    "gamma": g.gamma_labels[w.gamma],
                    "rendered": format_witness(g, a, w),
                }
        _emit_json({"intra-regular": report.holds, "witnesses": witnesses})
    else:
        print(f"intra-regular: {str(report.holds).lower()}")
        for a, w in enumerate(report.witnesses):
            if w is None:
                print(f"  {g.element_labels[a]}: no witness")
            else:
                print(f"  {format_witness(g, a, w)}")
    return 0 if report.holds else 3


def cmd_verify(args) -> int:
    g = _load_model(args.model)
    selection = set(args.theorem) if args.theorem else None
    reports = run_suite(g, selection)
    if args.json:
        _emit_json(suite_to_json_obj(g, reports))
    else:
        sys.stdout.write(format_report_table(reports))
        by_status: dict[str, int] = {}
        for r in reports:
            by_status[r.status] = by_status.get(r.status, 0) + 1
        summary = ", ".join(f"{v} {k}" for k, v in sorted(by_status.items()))
        print(f"{len(reports)} checks: {summary}")
    return suite_exit_code(reports)


def cmd_search(args) -> int:
    try:
        spec = SearchSpec(
            n=args.order,
            m=args.gammas,
            axioms=AXIOM_SETS[args.axiom],
            filter=args.filter,
            max_models=args.limit,
            time_budget=args.time_budget,
        )
    except ValueError as e:
        raise UsageError(str(e)) from e
    if args.workers < 1:
        raise UsageError("workers (--workers) must be at least 1")
    theorem = args.find_counterexample
    if theorem is not None:
        result = find_counterexample(spec, theorem)
        if args.json:
            _emit_json(hunt_to_json_obj(spec, theorem, result))
        else:
            if result.found:
                sys.stdout.write(serialize_model(result.model))
                sys.stdout.write(format_report_table([result.report]))
            print(
                f"# scanned={result.scanned} found={str(result.found).lower()}"
                f" truncated={str(result.truncated).lower()} elapsed={result.elapsed:.2f}s"
            )
        return 2 if result.found else 0

    result = (count_models if args.count else enumerate_models)(spec)
    if args.json:
        _emit_json(search_to_json_obj(spec, "count" if args.count else "enumerate", result))
    else:
        for g in result.models:
            sys.stdout.write(serialize_model(g))
        print(
            f"# count={result.count} truncated={str(result.truncated).lower()}"
            f" elapsed={result.elapsed:.2f}s"
        )
    return 0


def cmd_canon(args) -> int:
    g = _load_model(args.model)
    c = canonical_model(g)
    if args.json:
        _emit_json(model_to_json_obj(c))
    else:
        sys.stdout.write(serialize_model(c))
    return 0


class UsageError(Exception):
    pass


_THEOREM_NAMES = ", ".join(t.value for t in TheoremId)


def _theorem_id(name: str) -> TheoremId:
    try:
        return TheoremId.from_name(name)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _add_model_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "model",
        help=f"model file, '-' for stdin, or {PAPER_EXAMPLE_TOKEN} for the bundled example",
    )


def _add_json_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="structured output")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="gag",
        description="Finite-model toolkit for operator groupoids satisfying the left invertive law.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser(
        "check",
        help="law profile of a model",
        description="Sweep the four structural laws and list left identities. Exit 0 iff the left invertive law holds.",
        epilog="example: gag check @paper-example  |  gag check @paper-example --json",
    )
    _add_model_arg(p)
    _add_json_flag(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "ideals",
        help="subset families of a model",
        description="List the non-empty subsets forming the requested ideal kind, in canonical member order.",
        epilog=(
            "examples: gag ideals @paper-example --kind two-sided  |  "
            "gag ideals @paper-example --kind all  |  "
            "gag ideals @paper-example --kind two-sided --dot  |  "
            "gag ideals @paper-example --kind left --generated-from b"
        ),
    )
    _add_model_arg(p)
    p.add_argument(
        "--kind",
        default="two-sided",
        choices=[k.value for k in IdealKind] + ["all"],
        help="family to list; all prints the nine families and marks coinciding ones (example: --kind quasi)",
    )
    p.add_argument(
        "--dot",
        action="store_true",
        help="emit the containment diagram as DOT (example: --kind bi --dot)",
    )
    p.add_argument(
        "--generated-from",
        action="append",
        metavar="ELEMS",
        help="closure of the seed instead of a family listing; repeatable, and a value that is not an element label is split at commas (example: --kind left --generated-from b)",
    )
    _add_json_flag(p)
    p.set_defaults(func=cmd_ideals)

    p = sub.add_parser(
        "intra",
        help="intra-regularity witnesses",
        description="Per-element decomposition witnesses. Exit 0 iff every element has one.",
        epilog="example: gag intra @paper-example",
    )
    _add_model_arg(p)
    _add_json_flag(p)
    p.set_defaults(func=cmd_intra)

    p = sub.add_parser(
        "verify",
        help="run the theorem suite",
        description=(
            "Run the executable structure theorems against one model. "
            f"Known checks: {_THEOREM_NAMES}. "
            "Exit 0 no failures, 2 some check failed, 3 every selected check was skipped."
        ),
        epilog="examples: gag verify @paper-example  |  gag verify @paper-example --theorem KI --theorem AW --json",
    )
    _add_model_arg(p)
    p.add_argument(
        "--theorem",
        action="append",
        type=_theorem_id,
        metavar="ID",
        help="restrict to one check; repeatable (example: --theorem EQUALIENT)",
    )
    _add_json_flag(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "search",
        help="enumerate models or hunt counterexamples",
        description=(
            "Enumerate models of a given order up to isomorphism, or scan them for a theorem violation. "
            "Exit 0 on a clean run, 2 when a hunt finds a counterexample."
        ),
        epilog=(
            "examples: gag search --order 2 --gammas 1 --axiom ag  |  "
            "gag search --order 3 --axiom agss --filter intra-regular --json  |  "
            "gag search --order 3 --axiom agss --find-counterexample RINTL  |  "
            "gag search --order 3 --count --limit 10 --time-budget 30"
        ),
    )
    p.add_argument("--order", type=int, required=True, help="carrier size n (example: --order 3)")
    p.add_argument("--gammas", type=int, default=1, help="operator count, default 1 (example: --gammas 2)")
    p.add_argument(
        "--axiom",
        choices=AXIOM_SETS,
        default="ag",
        help="ag = left invertive only, agss = left invertive + the ag-star-star law (example: --axiom agss)",
    )
    p.add_argument(
        "--filter",
        choices=FILTER_NAMES,
        default="any",
        help="keep only models with (or without) full intra-regularity (example: --filter non-intra-regular)",
    )
    target = p.add_mutually_exclusive_group()
    target.add_argument(
        "--find-counterexample",
        type=_theorem_id,
        metavar="ID",
        help=f"return the first enumerated model failing this check; one of: {_THEOREM_NAMES}",
    )
    target.add_argument("--count", action="store_true", help="print the class count only (example: --count)")
    p.add_argument("--limit", type=int, help="stop after this many distinct models (example: --limit 100)")
    p.add_argument(
        "--time-budget",
        type=float,
        metavar="SECONDS",
        help="wall-clock cutoff; budgeted runs are not byte-reproducible (example: --time-budget 60)",
    )
    p.add_argument("--workers", type=int, default=1, help="ignored: every search runs in one process; kept so that existing command lines run")
    _add_json_flag(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser(
        "canon",
        help="canonical form of a model",
        description="Print the lexicographically least relabeling; equal outputs mean isomorphic inputs.",
        epilog="example: gag canon @paper-example",
    )
    _add_model_arg(p)
    _add_json_flag(p)
    p.set_defaults(func=cmd_canon)

    return parser


# built once per process; parse_args returns a fresh Namespace on every call
_PARSER = build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (`gag search ... | head -1`): exit as
        # SIGPIPE would, and send what is still buffered to devnull so the
        # flush at interpreter exit reports nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EX_SIGPIPE
    except (UsageError, ModelFormatError, SizeGuardError, EmptySubsetError, OSError) as e:
        print(f"gag: error: {e}", file=sys.stderr)
        return EX_USAGE if isinstance(e, UsageError) else EX_DATA


if __name__ == "__main__":
    sys.exit(main())
