"""Command-line surface.

Subcommands: certify (the full pipeline), fit-tau, epsilon, verify, oracle,
chi-split (certify under chromatic mass, reporting chi(G) and
epsilon*chi(G)), gen, and batch.  Exit codes: 0 success / verified witness,
1 failed verification, 2 honest Stuck, 64 usage or domain errors, 66
unreadable or malformed input files, 70 theorem violation (a replay bundle
is written), 71 out of memory.

Rationals are exact "p/q" strings everywhere; decimals are rejected.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import List, Optional, Sequence, Tuple

from .engine import EngineParams, TheoremViolation, run_trichotomy
from .formats import ParseError, parse_graph, parse_weights, serialize_edge_list
from .graphs import Graph
from .harness import MODELS, GenSpec, generate, run_batch
from .mass import CardinalityMass, ChromaticMass, MassProvider, WeightedMass
from .oracles import (
    NodeLimitExceeded,
    brute_best_anticomplete,
    brute_induced_embedding,
    exact_chromatic_number,
    verify_witness,
)
from .trees import CaterpillarTree, fit_tau
from .witnesses import (
    Stuck,
    Witness,
    format_rational,
    parameters_document,
    parse_rational,
    witness_document,
    witness_from_document,
)

EX_OK = 0
EX_VERIFY_FAILED = 1
EX_STUCK = 2
EX_USAGE = 64
EX_IO = 66
EX_INTERNAL = 70
EX_OSERR = 71

REPLAY_BUNDLE = "catspire-replay.json"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path: str) -> Graph:
    return parse_graph(_read(path))


def _load_tree(path: str) -> CaterpillarTree:
    return CaterpillarTree(parse_graph(_read(path)))


def _build_mass(g: Graph, option: str) -> MassProvider:
    if option == "cardinality":
        return CardinalityMass(g.n)
    if option == "chromatic":
        return ChromaticMass(g)
    if option.startswith("weighted:"):
        weights = parse_weights(_read(option.split(":", 1)[1]))
        if len(weights) != g.n:
            raise ValueError(f"weight file has {len(weights)} entries for {g.n} vertices")
        return WeightedMass(weights)
    raise ValueError(f"unknown mass {option!r} (use cardinality, chromatic, weighted:FILE)")


def _resolve_params(
    t: CaterpillarTree, tau: Optional[int], epsilon: Optional[str], p: Optional[int]
) -> EngineParams:
    """tau defaults to fit-tau of the target; EngineParams fills in the rest."""
    eps = None if epsilon is None else parse_rational(epsilon)
    return EngineParams(fit_tau(t) if tau is None else tau, eps, p)


def _write_replay(replay: dict) -> None:
    try:
        with open(REPLAY_BUNDLE, "w", encoding="utf-8") as fh:
            json.dump(replay, fh, indent=2)
            fh.write("\n")
        print(f"replay bundle written to {REPLAY_BUNDLE}", file=sys.stderr)
    except OSError as ex:
        print(f"could not write replay bundle: {ex}", file=sys.stderr)


def _certify(args: argparse.Namespace) -> Tuple[MassProvider, EngineParams, Witness, dict]:
    """Run the pipeline that the certify flags describe and build its witness document."""
    g = _load_graph(args.graph)
    t = _load_tree(args.tree)
    m = _build_mass(g, args.mass)
    params = _resolve_params(t, args.tau, args.epsilon, args.p)
    trace: Optional[List[dict]] = [] if args.trace else None
    rng = random.Random(args.x1_seed) if args.x1_seed is not None else None
    try:
        w = run_trichotomy(g, m, t, params, trace=trace, x1_rng=rng)
    except TheoremViolation as ex:
        ex.replay = {
            "message": str(ex),
            "graph": serialize_edge_list(g),
            "tree": serialize_edge_list(t.tree),
            "mass": args.mass,
            "params": parameters_document(params),
        }
        raise
    verdict = "unverified" if isinstance(w, Stuck) else "pass"
    return m, params, w, witness_document(g, m, w, params, verdict, trace=trace)


def _cmd_certify(args: argparse.Namespace) -> int:
    _, _, w, doc = _certify(args)
    print(json.dumps(doc, indent=2))
    return EX_STUCK if isinstance(w, Stuck) else EX_OK


def _cmd_fit_tau(args: argparse.Namespace) -> int:
    print(fit_tau(_load_tree(args.tree)))
    return EX_OK


def _cmd_epsilon(args: argparse.Namespace) -> int:
    params = EngineParams(args.tau)
    doc = {"tau": params.tau, "p": params.p, "epsilon": format_rational(params.epsilon)}
    print(json.dumps(doc, indent=2))
    return EX_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    t = _load_tree(args.tree)
    m = _build_mass(g, args.mass)
    epsilon = parse_rational(args.epsilon)
    doc = json.loads(_read(args.witness))
    try:
        w = witness_from_document(doc)
    except (KeyError, TypeError, ValueError) as ex:
        print(f"error: malformed witness document: {ex}", file=sys.stderr)
        return EX_IO
    report = verify_witness(g, m, t, epsilon, w)
    print(json.dumps({"verdict": report.verdict, "problems": list(report.problems)}, indent=2))
    return EX_OK if report.ok else EX_VERIFY_FAILED


def _cmd_oracle(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    if args.mode == "embed":
        if args.tree is None:
            raise ValueError("oracle embed needs --tree")
        t = parse_graph(_read(args.tree))
        mapping = brute_induced_embedding(g, t)
        doc = {"found": mapping is not None, "mapping": None if mapping is None else list(mapping)}
    elif args.mode == "anticomplete":
        a, b = brute_best_anticomplete(g)
        doc = {"a": sorted(a), "b": sorted(b)}
    else:
        doc = {"chi": exact_chromatic_number(g)}
    print(json.dumps(doc, indent=2))
    return EX_OK


def _cmd_chi_split(args: argparse.Namespace) -> int:
    # no run reaches a pair: under the 64-vertex chromatic limit a pair needs
    # a triangle-free graph with chi >= 49, and such graphs have chi <= 16
    m, params, w, witness = _certify(args)
    chi_g = m.chi_total
    bar = params.epsilon * chi_g
    doc = {"witness": witness, "chi_g": chi_g, "epsilon_chi_g": format_rational(bar)}
    print(json.dumps(doc, indent=2))
    return EX_STUCK if isinstance(w, Stuck) else EX_OK


def _parse_legs(text: str) -> Tuple[Tuple[int, int], ...]:
    legs = []
    for item in text.split(","):
        pos, _, length = item.partition(":")
        try:
            legs.append((int(pos), int(length)))
        except ValueError:
            raise ValueError(
                f"bad leg {item!r}: expected POSITION:LENGTH, e.g. --legs 3:1"
            ) from None
    return tuple(legs)


def _cmd_gen(args: argparse.Namespace) -> int:
    # from_document reads the spec's fields among the flags and ignores the rest
    legs = _parse_legs(args.legs) if args.legs else ()
    spec = GenSpec.from_document({**vars(args), "probability": args.probability or None, "legs": legs})
    sys.stdout.write(serialize_edge_list(generate(spec)))
    return EX_OK


def _tree_from_value(value) -> CaterpillarTree:
    if isinstance(value, str):
        return _load_tree(value)
    if isinstance(value, dict):
        spec = GenSpec.from_document(
            {"model": "caterpillar_subdivision", "spine": value.get("spine"), "legs": value.get("legs", [])}
        )
        return CaterpillarTree(generate(spec))
    raise ValueError("tree must be a file path or {spine, legs}")


def _cmd_batch(args: argparse.Namespace) -> int:
    doc = json.loads(_read(args.spec))
    try:
        trials = int(doc["trials"])
        tree = _tree_from_value(doc["tree"])
        given = doc.get("params", {})
        if not isinstance(given, dict):
            raise TypeError(f"params must be a JSON object, got {given!r}")
        params = _resolve_params(
            tree,
            int(given["tau"]) if "tau" in given else None,
            given.get("epsilon"),
            int(given["p"]) if "p" in given else None,
        )
        specs = [GenSpec.from_document(sd) for sd in doc.get("specs", [])]
        report = run_batch(specs, tree, params, trials)
    except (KeyError, TypeError, ValueError) as ex:
        print(f"error: bad batch spec: {ex}", file=sys.stderr)
        return EX_IO
    print(report.format_table() if args.table else json.dumps(report.to_document(), indent=2))
    return EX_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="catspire", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def engine_flags(p: argparse.ArgumentParser, epsilon_required: bool = False) -> None:
        p.add_argument("--epsilon", required=epsilon_required, help="threshold as p/q")
        p.add_argument("--p", type=int, help="number of nursery components")
        p.add_argument("--tau", type=int, help="spire length (default: fit-tau of the tree)")

    c = sub.add_parser("certify", help="run the trichotomy and print the witness")
    c.add_argument("--graph", required=True)
    c.add_argument("--tree", required=True)
    c.add_argument("--mass", default="cardinality", help="cardinality, chromatic, or weighted:FILE")
    engine_flags(c)
    c.add_argument("--trace", action="store_true", help="include the engine trace")
    c.add_argument("--x1-seed", type=int, dest="x1_seed", help="randomize spire starts")
    c.set_defaults(func=_cmd_certify)

    f = sub.add_parser("fit-tau", help="minimal tau fitting a tree")
    f.add_argument("--tree", required=True)
    f.set_defaults(func=_cmd_fit_tau)

    e = sub.add_parser("epsilon", help="proven epsilon and p for a tau")
    e.add_argument("--tau", type=int, required=True)
    e.set_defaults(func=_cmd_epsilon)

    v = sub.add_parser("verify", help="re-check a witness document")
    v.add_argument("--graph", required=True)
    v.add_argument("--tree", required=True)
    v.add_argument("--witness", required=True)
    v.add_argument("--epsilon", required=True)
    v.add_argument("--mass", default="cardinality")
    v.set_defaults(func=_cmd_verify)

    o = sub.add_parser("oracle", help="brute-force ground truth")
    o.add_argument("mode", choices=("embed", "anticomplete", "chi"))
    o.add_argument("--graph", required=True)
    o.add_argument("--tree")
    o.set_defaults(func=_cmd_oracle)

    x = sub.add_parser("chi-split", help="certify under chromatic mass and report the bounds")
    x.add_argument("--graph", required=True)
    x.add_argument("--tree", required=True)
    engine_flags(x, epsilon_required=True)
    x.set_defaults(func=_cmd_chi_split, mass="chromatic", trace=False, x1_seed=None)

    g = sub.add_parser("gen", help="emit a generated graph as an edge list")
    g.add_argument("--model", required=True, choices=MODELS)
    g.add_argument("--n", type=int, default=0)
    g.add_argument("--probability", help="edge probability as p/q")
    g.add_argument("--degree", type=int)
    g.add_argument("--girth", type=int)
    g.add_argument("--spine", type=int)
    g.add_argument("--legs", help="comma-separated POSITION:LENGTH pairs")
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=_cmd_gen)

    b = sub.add_parser("batch", help="run a batch spec file")
    b.add_argument("--spec", required=True)
    b.add_argument("--table", action="store_true", help="plain-text summary instead of JSON")
    b.set_defaults(func=_cmd_batch)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as ex:
        return ex.code if isinstance(ex.code, int) else EX_USAGE
    try:
        return args.func(args)
    except TheoremViolation as ex:
        print(f"error: theorem violation: {ex}", file=sys.stderr)
        _write_replay(ex.replay or {"message": str(ex)})
        return EX_INTERNAL
    except MemoryError:
        print("error: out of memory; the input is too large for the memory this process may use",
              file=sys.stderr)
        return EX_OSERR
    except ParseError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EX_IO
    except json.JSONDecodeError as ex:
        print(f"error: bad JSON: {ex}", file=sys.stderr)
        return EX_IO
    except OSError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EX_IO
    except NodeLimitExceeded as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EX_USAGE
    except ValueError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EX_USAGE


if __name__ == "__main__":
    sys.exit(main())
