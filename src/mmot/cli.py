"""Command-line front end for the experiment pipeline and audits.

    mmot distances --seed 7 --backend mmot_pairwise --out-dir results
    mmot cluster --seed 7 --tensor results/tensor_mmot_pairwise.csv
    mmot inject --seed 7 --tensor T.csv --out T_bad.csv
    mmot verify
    mmot hash audit --n-max 40
    mmot constructions planar --epsilon 0.01
    mmot graphs gen --family cycle --n 12 --out cycle.csv
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import hashes
from .constructions import planar_counterexample
from .experiments import (
    CONFIG_PARSERS,
    ExperimentConfig,
    cmd_cluster,
    cmd_distances,
    cmd_inject,
    cmd_verify,
    load_config_file,
    parse_config_value,
)
from .graphs import generate, save_graph


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--seed", type=int, required=True, help="master seed")
    for key in CONFIG_PARSERS:
        if key != "seed":
            p.add_argument("--" + key.replace("_", "-"),
                           help=f"config key {key}, parsed as in a config file")


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    values: dict = {}
    if args.config:
        values.update(load_config_file(args.config))
    for key in CONFIG_PARSERS:
        raw = getattr(args, key)
        if key != "seed" and raw is not None:
            values[key] = parse_config_value(key, raw)
    values["seed"] = args.seed
    return ExperimentConfig(**values)


def _run_distances(args: argparse.Namespace) -> int:
    cmd_distances(_build_config(args))
    return 0


def _run_cluster(args: argparse.Namespace) -> int:
    cmd_cluster(_build_config(args), args.tensor)
    return 0


def _run_inject(args: argparse.Namespace) -> int:
    cmd_inject(args.tensor, args.fraction, args.factor, args.seed,
               args.out, args.report)
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    return cmd_verify()


def _run_hash_audit(args: argparse.Namespace) -> int:
    ns = [args.n] if args.n is not None else list(range(2, args.n_max + 1))
    if not ns:
        raise ValueError(f"--n-max must be at least 2, got {args.n_max}")
    # refuse the whole range up front rather than after auditing its start
    if ns[-1] > hashes.AUDIT_CAP:
        raise ValueError(f"audit cap is n <= {hashes.AUDIT_CAP}, got {ns[-1]}")
    bad = 0
    for n in ns:
        for rep in (hashes.audit_H(n), hashes.audit_H_prime(n)):
            if not rep.ok:
                bad += 1
            print(rep.summary())
    return 0 if bad == 0 else 1


def _run_constructions_planar(args: argparse.Namespace) -> int:
    inst = planar_counterexample(args.epsilon)
    data = {
        "epsilon": inst.epsilon,
        "gamma": inst.gamma,
        "points": inst.points.tolist(),
        "w_values": {",".join(map(str, key)): val
                     for key, val in sorted(inst.w_values.items())},
        "margin": inst.margin,
    }
    text = json.dumps(data, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
            fh.write("\n")
    print(text)
    return 0


def _run_graphs_gen(args: argparse.Namespace) -> int:
    params = {}
    for key in ("n", "a", "b", "dim", "k", "rows", "cols", "p"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    rng = None
    if args.family == "erdos_renyi":
        if args.seed is None:
            raise ValueError("--seed is required for erdos_renyi")
        rng = np.random.Generator(np.random.PCG64(args.seed))
    g = generate(args.family, params, rng)
    save_graph(g, args.out)
    print(f"{args.family}: {g.n} nodes, {g.num_edges} edges -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mmot")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distances", help="compute a distance tensor over a corpus")
    _add_config_flags(p)
    p.set_defaults(func=_run_distances)

    p = sub.add_parser("cluster", help="cluster a tensor and score against truth")
    _add_config_flags(p)
    p.add_argument("--tensor", required=True, help="tensor csv from `distances`")
    p.set_defaults(func=_run_cluster)

    p = sub.add_parser("inject", help="corrupt a tensor with triangle violations")
    p.add_argument("--tensor", required=True)
    p.add_argument("--fraction", type=float, default=0.20)
    p.add_argument("--factor", type=float, default=1.3)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output tensor csv")
    p.add_argument("--report", help="optional json report path")
    p.set_defaults(func=_run_inject)

    p = sub.add_parser("verify", help="run the reproduction suite")
    p.set_defaults(func=_run_verify)

    p = sub.add_parser("hash", help="index-map tools")
    hsub = p.add_subparsers(dest="hash_command", required=True)
    pa = hsub.add_parser("audit", help="audit the index maps")
    pa.add_argument("--n", type=int, help="audit a single n")
    pa.add_argument("--n-max", type=int, default=40, dest="n_max")
    pa.set_defaults(func=_run_hash_audit)

    p = sub.add_parser("constructions", help="reference instances")
    csub = p.add_subparsers(dest="construction", required=True)
    pc = csub.add_parser("planar", help="planar strict-violation instance")
    pc.add_argument("--epsilon", type=float, default=0.01)
    pc.add_argument("--out", help="optional json output path")
    pc.set_defaults(func=_run_constructions_planar)

    p = sub.add_parser("graphs", help="graph corpus tools")
    gsub = p.add_subparsers(dest="graphs_command", required=True)
    pg = gsub.add_parser("gen", help="generate one graph as edge-list csv")
    pg.add_argument("--family", required=True)
    pg.add_argument("--out", required=True)
    pg.add_argument("--seed", type=int, help="required for erdos_renyi")
    pg.add_argument("--n", type=int)
    pg.add_argument("--a", type=int)
    pg.add_argument("--b", type=int)
    pg.add_argument("--dim", type=int)
    pg.add_argument("--k", type=int)
    pg.add_argument("--rows", type=int)
    pg.add_argument("--cols", type=int)
    pg.add_argument("--p", type=float)
    pg.set_defaults(func=_run_graphs_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
