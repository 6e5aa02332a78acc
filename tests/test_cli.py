"""Command-line surface: subcommands, config handling, exit codes."""

import argparse
import hashlib
import importlib
import importlib.util
import json
import sys
from itertools import combinations
from pathlib import Path

import pytest

import hash_oracle
from mmot import experiments, hashes, metric_props
from mmot.cli import _build_config, build_parser, main
from mmot.experiments import CONFIG_PARSERS
from mmot.graphs import DEFAULT_FAMILIES, generate, load_graph


def run(argv, capsys):
    try:
        rc = main(argv)
    except SystemExit as e:
        rc = int(e.code or 0)
    out, err = capsys.readouterr()
    return rc, out, err


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def subcommand(parser, name):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices[name]


class TestHashAudit:
    def test_single_n(self, capsys):
        rc, out, _ = run(["hash", "audit", "--n", "4"], capsys)
        assert rc == 0
        assert "max multiplicity 5" in out

    def test_sweep(self, capsys):
        rc, out, err = run(["hash", "audit", "--n-max", "12"], capsys)
        assert rc == 0
        assert err == ""
        assert out == "".join(f"{rep.summary()}\n" for n in range(2, 13)
                              for rep in (hash_oracle.audit_H(n), hash_oracle.audit_H_prime(n)))

    @pytest.mark.parametrize("n_max", ["1", "0", "-3"])
    def test_empty_range_is_an_error(self, capsys, n_max):
        rc, out, err = run(["hash", "audit", f"--n-max={n_max}"], capsys)
        assert rc == 2
        assert out == ""
        assert err == f"error: --n-max must be at least 2, got {n_max}\n"

    def test_single_n_with_a_range_is_refused(self, capsys):
        rc, out, err = run(["hash", "audit", "--n", "5", "--n-max", "10"], capsys)
        assert rc == 2
        assert out == ""
        assert "argument --n-max: not allowed with argument --n" in err

    def test_range_past_the_cap_is_refused_before_any_audit(self, capsys):
        rc, out, err = run(["hash", "audit", "--n-max", "61"], capsys)
        assert rc == 2
        assert out == ""
        assert err == "error: audit cap is n <= 60, got 61\n"


class TestConstructionsPlanar:
    def test_json_payload(self, capsys):
        rc, out, _ = run(["constructions", "planar", "--epsilon", "0.01"], capsys)
        assert rc == 0
        data = json.loads(out)
        assert data["epsilon"] == 0.01
        assert data["margin"] == pytest.approx(0.12, abs=1e-8)
        assert len(data["points"]) == 6

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "inst.json"
        rc, _, _ = run(
            ["constructions", "planar", "--epsilon", "0.02", "--out", str(target)], capsys
        )
        assert rc == 0
        assert json.loads(target.read_text())["epsilon"] == 0.02

    def test_bad_epsilon_exits_2(self, capsys):
        rc, _, err = run(["constructions", "planar", "--epsilon", "0.5"], capsys)
        assert rc == 2
        assert "error:" in err

    def test_epsilon_failing_the_premise_audit_exits_2(self, capsys):
        rc, out, err = run(["constructions", "planar", "--epsilon", "1e-13"], capsys)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: epsilon 1e-13: triangle-area cost is not a (3,1)-metric")
        assert err.count("\n") == 1


class TestGraphsGen:
    def test_deterministic_family(self, tmp_path, capsys):
        p = tmp_path / "c.csv"
        rc, out, _ = run(["graphs", "gen", "--family", "cycle", "--n", "7", "--out", str(p)], capsys)
        assert rc == 0
        g = load_graph(str(p))
        assert g.n == 7

    def test_random_family_requires_seed(self, tmp_path, capsys):
        p = tmp_path / "er.csv"
        rc, _, err = run(
            ["graphs", "gen", "--family", "erdos_renyi", "--n", "10", "--p", "0.4", "--out", str(p)],
            capsys,
        )
        assert rc == 2
        assert "--seed" in err
        rc, _, _ = run(
            ["graphs", "gen", "--family", "erdos_renyi", "--n", "10", "--p", "0.4",
             "--seed", "3", "--out", str(p)],
            capsys,
        )
        assert rc == 0
        assert load_graph(str(p)).n == 10

    def test_unknown_family_exits_2(self, tmp_path, capsys):
        rc, _, _ = run(
            ["graphs", "gen", "--family", "petersen", "--out", str(tmp_path / "x.csv")], capsys
        )
        assert rc == 2

    def test_param_the_family_does_not_take_exits_2(self, tmp_path, capsys):
        p = tmp_path / "c.csv"
        rc, out, err = run(
            ["graphs", "gen", "--family", "cycle", "--a", "3", "--out", str(p)], capsys
        )
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and "'a'" in err
        assert not p.exists()

    @pytest.mark.parametrize("family", sorted(set(DEFAULT_FAMILIES) - {"erdos_renyi"}))
    def test_omitted_flags_take_the_family_defaults(self, tmp_path, capsys, family):
        p = tmp_path / "g.csv"
        rc, _, _ = run(["graphs", "gen", "--family", family, "--out", str(p)], capsys)
        assert rc == 0
        want = generate(family, DEFAULT_FAMILIES[family], None)
        assert list(load_graph(str(p)).edges()) == list(want.edges())

    def test_size_flags_are_the_family_params(self):
        parser = build_parser()
        graphs = subcommand(parser, "graphs")
        gen = subcommand(graphs, "gen")
        flags = {a.dest: a.type for a in gen._actions
                 if a.dest not in ("help", "family", "out", "seed")}
        want = {key: type(val) for params in DEFAULT_FAMILIES.values()
                for key, val in params.items()}
        assert flags == want


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _count_calls(monkeypatch, fn):
    """Route every loaded mmot module's name for fn through one call log."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "mmot" and vars(module).get(fn.__name__) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)
    return calls


class TestVerify:
    def test_all_checks_pass(self, capsys):
        rc, out, _ = run(["verify"], capsys)
        assert rc == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == 6
        assert all(l.startswith("PASS") for l in lines)
        # the benchmark's verify workload compares these names with its reference
        reference = json.loads((PERFBENCH / "references" / "verify.json").read_text())
        assert [l.split(":")[0] for l in lines] == reference["fixed"]["verify"]["checks"]

    def test_each_audit_runs_once(self, monkeypatch, capsys):
        premise = _count_calls(monkeypatch, metric_props.check_n_metric_cost)
        triple = _count_calls(monkeypatch, hashes.audit_H_prime)
        rc, _, _ = run(["verify"], capsys)
        assert rc == 0
        assert len(premise) == 1
        assert [args[0] for args in triple] == list(range(2, 41))


def _load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_patch(monkeypatch):
    spans = _load_spans(monkeypatch)
    targets = []
    for module_name, attr, _ in spans.PATCHES:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        assert attr in vars(owner), f"span target {module_name}.{attr} is gone"
        targets.append((owner, attr, vars(owner)[attr]))
    with spans.Tracer().installed():
        for owner, attr, original in targets:
            assert vars(owner)[attr] is not original, attr
    for owner, attr, original in targets:
        assert vars(owner)[attr] is original, attr


def test_traced_verify_reaches_every_verify_layer(monkeypatch, capsys):
    # the tracer patches these where `experiments` looks them up, so a check
    # moved out of `experiments` would leave its layer silently at zero
    spans = _load_spans(monkeypatch)
    with spans.Tracer().installed() as tracer:
        assert experiments.cmd_verify() == 0
    capsys.readouterr()
    assert {s.name for s in tracer.spans} >= {
        "constructions.build", "core.glue", "transport.solve", "hashes.audit", "lp.feasible"}


def test_verify_prints_fail_and_exits_1_when_a_check_raises(monkeypatch, capsys):
    def broken():
        raise AssertionError("planted failure")
    monkeypatch.setattr(experiments, "_VERIFY_CHECKS", (
        ("fine", lambda: experiments.Checked("nothing wrong", 0.0)), ("broken", broken)))
    rc, out, err = run(["verify"], capsys)
    assert rc == 1
    assert out == "PASS fine: nothing wrong\nFAIL broken: planted failure\n1 of 2 checks passed\n"
    assert err == ""


def test_huge_node_id_exits_2_naming_its_line(tmp_path, capsys):
    graph_dir = tmp_path / "graphs"
    graph_dir.mkdir()
    (graph_dir / "g0.csv").write_text("0,1,1\n1,5000000,1\n")
    rc, out, err = run(["distances", "--seed", "1", "--input-dir", str(graph_dir),
                        "--out-dir", str(tmp_path / "out")], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: {graph_dir / 'g0.csv'}:2: node id 5000000 ")
    assert not (tmp_path / "out").exists()


@pytest.fixture()
def small_cfg(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "families = cycle, complete\n"
        "graphs_per_family = 3\n"
        "top_k = 6\n"
        "backend = mmot_pairwise\n"
        "pairs_budget = 40\n"
        "triples_budget = 20\n"
        "trials = 3\n"
        "clusterer = ttm\n"
        f"out_dir = {tmp_path / 'out'}\n"
    )
    return cfg, tmp_path / "out"


class TestExperimentCommands:
    def test_distances_cluster_inject_round_trip(self, small_cfg, capsys):
        cfg, out_dir = small_cfg
        rc, _, _ = run(["distances", "--config", str(cfg), "--seed", "21"], capsys)
        assert rc == 0
        tensor = out_dir / "tensor_mmot_pairwise.csv"
        assert tensor.exists()

        rc, _, _ = run(
            ["cluster", "--config", str(cfg), "--seed", "21", "--tensor", str(tensor)], capsys
        )
        assert rc == 0
        report = json.loads((out_dir / "report_ttm_mmot_pairwise.json").read_text())
        assert report["trials"] == 3

        rc, _, _ = run(
            ["inject", "--tensor", str(tensor), "--fraction", "0.2", "--factor", "1.3",
             "--seed", "5", "--out", str(out_dir / "inj.csv"),
             "--report", str(out_dir / "inj.json")],
            capsys,
        )
        assert rc == 0
        inj = json.loads((out_dir / "inj.json").read_text())
        assert inj["n_modified"] == 4

    def test_byte_identical_reruns(self, small_cfg, capsys):
        cfg, out_dir = small_cfg
        run(["distances", "--config", str(cfg), "--seed", "21"], capsys)
        tensor = out_dir / "tensor_mmot_pairwise.csv"
        run(["cluster", "--config", str(cfg), "--seed", "21", "--tensor", str(tensor)], capsys)
        report = out_dir / "report_ttm_mmot_pairwise.json"
        hist = out_dir / "hist_ttm_mmot_pairwise.dat"
        first = (digest(tensor), digest(report), digest(hist))

        run(["distances", "--config", str(cfg), "--seed", "21"], capsys)
        run(["cluster", "--config", str(cfg), "--seed", "21", "--tensor", str(tensor)], capsys)
        assert (digest(tensor), digest(report), digest(hist)) == first

    def test_seed_is_required(self, small_cfg, capsys):
        cfg, out_dir = small_cfg
        rc, out, err = run(["distances", "--config", str(cfg)], capsys)
        assert rc == 2
        assert out == ""
        assert err == "error: config key 'seed': required, as a flag or a config-file line\n"
        assert not out_dir.exists()

    def test_config_file_seed_counts_and_the_flag_overrides_it(self, small_cfg, tmp_path, capsys):
        cfg, _ = small_cfg
        seeded = tmp_path / "seeded.cfg"
        seeded.write_text(cfg.read_text() + "seed = 21\n")

        def outputs(argv, name):
            out_dir = tmp_path / name
            assert run([*argv, "--out-dir", str(out_dir)], capsys)[0] == 0
            corpus = json.loads((out_dir / "corpus.json").read_text())
            del corpus["config"]["out_dir"]
            return (corpus, digest(out_dir / "tensor_mmot_pairwise.csv"),
                    digest(out_dir / "distances_mmot_pairwise.json"))

        from_flag = outputs(["distances", "--config", str(cfg), "--seed", "21"], "flag")
        assert outputs(["distances", "--config", str(seeded)], "file") == from_flag
        other = outputs(["distances", "--config", str(cfg), "--seed", "5"], "other")
        assert other != from_flag
        assert outputs(["distances", "--config", str(seeded), "--seed", "5"], "both") == other

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_every_command_refuses_a_seed_outside_the_range(self, tmp_path, capsys, seed):
        tensor = tmp_path / "four.csv"
        tensor.write_text("0,1,2,1.0,1\n0,1,3,1.0,1\n0,2,3,1.0,1\n1,2,3,1.0,1\n")
        out = tmp_path / "out"
        commands = {
            "distances": ["distances", "--out-dir", str(out)],
            "cluster": ["cluster", "--tensor", str(tensor), "--out-dir", str(out)],
            "inject": ["inject", "--tensor", str(tensor), "--out", str(out / "inj.csv"),
                       "--report", str(tmp_path / "inj.json")],
            "graphs gen": ["graphs", "gen", "--family", "erdos_renyi",
                           "--out", str(tmp_path / "er.csv")],
        }
        rule = f"must be an integer in [0, 2**64), got {seed}\n"
        for name, argv in commands.items():
            rc, stdout, err = run([*argv, "--seed", seed], capsys)
            assert rc == 2, name
            assert stdout == ""
            where = "config key 'seed'" if name in ("distances", "cluster") else "seed"
            assert err == f"error: {where}: {rule}", name
        assert sorted(p.name for p in tmp_path.iterdir()) == ["four.csv"]

    def test_cluster_refuses_a_tensor_over_another_corpus(self, small_cfg, tmp_path, capsys):
        cfg, out_dir = small_cfg
        tensor = tmp_path / "five.csv"
        tensor.write_text("0,1,2,1.0,1\n1,2,4,1.0,1\n")
        rc, _, err = run(["cluster", "--config", str(cfg), "--seed", "21",
                          "--tensor", str(tensor)], capsys)
        assert rc == 2
        assert err == "error: tensor is over 5 objects, corpus has 6\n"
        assert not out_dir.exists()

    def test_cli_flags_override_config(self, small_cfg, capsys):
        cfg, out_dir = small_cfg
        rc, _, _ = run(
            ["distances", "--config", str(cfg), "--seed", "21", "--backend", "wd_pairwise"],
            capsys,
        )
        assert rc == 0
        assert (out_dir / "tensor_wd_pairwise.csv").exists()

    def test_sampling_flag_reaches_config(self, small_cfg, capsys):
        cfg, out_dir = small_cfg
        rc, _, _ = run(
            ["distances", "--config", str(cfg), "--seed", "21", "--sampling", "blocks"],
            capsys,
        )
        assert rc == 0
        manifest = json.loads((out_dir / "corpus.json").read_text())
        assert manifest["config"]["sampling"] == "blocks"

    def test_bad_config_key_names_it(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("seed = 3\nwibble = 1\n")
        rc, _, err = run(["distances", "--config", str(bad), "--seed", "3"], capsys)
        assert rc == 2
        assert "wibble" in err

    def test_missing_tensor_exits_2(self, small_cfg, capsys):
        cfg, _ = small_cfg
        rc, _, err = run(
            ["cluster", "--config", str(cfg), "--seed", "21", "--tensor", "/nope.csv"], capsys
        )
        assert rc == 2
        assert "error:" in err

    def test_spectral_with_a_threshold_grid_exits_2(self, small_cfg, capsys):
        cfg, out_dir = small_cfg
        base = ["--config", str(cfg), "--seed", "21", "--backend", "wd_pairwise"]
        assert run(["distances", *base], capsys)[0] == 0
        rc, _, err = run(["cluster", *base, "--clusterer", "spectral", "--threshold-grid",
                          "0.5,1.0", "--tensor", str(out_dir / "tensor_wd_pairwise.csv")],
                         capsys)
        assert rc == 2
        assert "--threshold-grid" in err
        assert not (out_dir / "report_spectral_wd_pairwise.json").exists()

    def test_cluster_checks_the_order_before_building_the_corpus(
            self, small_cfg, tmp_path, capsys, monkeypatch):
        cfg, _ = small_cfg
        tensor = tmp_path / "order2.csv"
        tensor.write_text("0,1,0.5,1\n")
        def no_corpus(config):
            raise AssertionError("corpus built for a tensor of the wrong order")
        monkeypatch.setattr(experiments, "build_corpus", no_corpus)
        rc, _, err = run(["cluster", "--config", str(cfg), "--seed", "21",
                          "--clusterer", "ttm", "--tensor", str(tensor)], capsys)
        assert rc == 2
        assert "needs an order-3 tensor" in err

    def test_inject_checks_the_order_before_the_audit(self, tmp_path, capsys, monkeypatch):
        tensor = tmp_path / "order2.csv"
        tensor.write_text("0,1,0.5,1\n")
        def no_audit(T, *args, **kwargs):
            raise AssertionError("audited a tensor of the wrong order")
        monkeypatch.setattr(experiments, "check_W_tensor", no_audit)
        rc, _, err = run(["inject", "--seed", "5", "--tensor", str(tensor),
                          "--out", str(tmp_path / "inj.csv")], capsys)
        assert rc == 2
        assert "needs an order-3 tensor" in err

    def test_inject_refuses_a_tensor_over_three_objects(self, tmp_path, capsys):
        tensor = tmp_path / "three.csv"
        tensor.write_text("0,1,2,1.0,1\n")
        out, report = tmp_path / "inj.csv", tmp_path / "inj.json"
        rc, _, err = run(["inject", "--seed", "5", "--tensor", str(tensor),
                          "--out", str(out), "--report", str(report)], capsys)
        assert rc == 2
        assert err == ("error: inject_violations needs at least 4 objects to draw "
                       "4-subsets from, got 3\n")
        assert not out.exists() and not report.exists()

    @pytest.mark.parametrize("factor", ["inf", "nan"])
    def test_inject_rejects_a_non_finite_factor(self, tmp_path, capsys, factor):
        tensor = tmp_path / "four.csv"
        tensor.write_text("0,1,2,1.0,1\n0,1,3,1.0,1\n0,2,3,1.0,1\n1,2,3,1.0,1\n")
        out, report = tmp_path / "inj.csv", tmp_path / "inj.json"
        rc, _, err = run(["inject", "--seed", "5", "--tensor", str(tensor),
                          "--factor", factor, "--out", str(out), "--report", str(report)],
                         capsys)
        assert rc == 2
        assert "factor must be finite" in err
        assert not out.exists() and not report.exists()

    def test_inject_refuses_a_raise_past_the_float_range(self, tmp_path, capsys):
        tensor = tmp_path / "six.csv"
        tensor.write_text("".join(f"{i},{j},{k},{1.0 + 0.1 * (i + j + k)!r},1\n"
                                  for i, j, k in combinations(range(6), 3)))
        out, report = tmp_path / "inj.csv", tmp_path / "inj.json"
        rc, _, err = run(["inject", "--seed", "5", "--tensor", str(tensor),
                          "--factor", "1e308", "--out", str(out), "--report", str(report)],
                         capsys)
        assert rc == 2
        assert err.startswith("error: raising triple (")
        assert "not a finite value" in err
        assert not out.exists() and not report.exists()

    def test_inject_refuses_an_unwritable_report_before_the_tensor(self, tmp_path, capsys):
        tensor = tmp_path / "four.csv"
        tensor.write_text("0,1,2,1.0,1\n0,1,3,1.0,1\n0,2,3,1.0,1\n1,2,3,1.0,1\n")
        out = tmp_path / "o.csv"
        rc, _, err = run(["inject", "--seed", "5", "--tensor", str(tensor), "--out", str(out),
                          "--report", str(tmp_path / "no" / "such" / "dir" / "r.json")],
                         capsys)
        assert rc == 2
        assert err.startswith("error: ")
        assert not out.exists()

    def test_inject_leaves_no_report_when_the_tensor_write_fails(self, tmp_path, capsys):
        tensor = tmp_path / "four.csv"
        tensor.write_text("0,1,2,1.0,1\n0,1,3,1.0,1\n0,2,3,1.0,1\n1,2,3,1.0,1\n")
        report = tmp_path / "r.json"
        rc, _, err = run(["inject", "--seed", "5", "--tensor", str(tensor),
                          "--out", str(tmp_path / "no" / "such" / "dir" / "o.csv"),
                          "--report", str(report)], capsys)
        assert rc == 2
        assert err.startswith("error: ")
        assert not report.exists()


# one raw value per config key, valid as a flag and as a file line
FLAG_VALUES = {
    "seed": "9",
    "families": "cycle, complete",
    "graphs_per_family": "3",
    "perturb_p": "0.1",
    "input_dir": "graphs",
    "top_k": "8",
    "backend": "mmot_nonmetric",
    "ell": "2",
    "pairs_budget": "10",
    "triples_budget": "5",
    "sampling": "blocks",
    "threshold_grid": "0.5, 1.0",
    "clusterer": "nhcut",
    "trials": "2",
    "out_dir": "somewhere",
}


def flag(key):
    return "--" + key.replace("_", "-")


class TestConfigFlags:
    def test_every_config_key_is_a_flag(self):
        assert set(FLAG_VALUES) == set(CONFIG_PARSERS)
        parser = build_parser()
        for command in (["distances"], ["cluster", "--tensor", "t.csv"]):
            for key, raw in FLAG_VALUES.items():
                args = parser.parse_args([*command, flag(key), raw])
                assert getattr(args, key) == raw
                # every flag is a raw string for parse_config_value, --seed too
                assert args.seed == (raw if key == "seed" else None)

    def test_flag_and_config_line_build_equal_configs(self, tmp_path):
        parser = build_parser()
        for key, raw in FLAG_VALUES.items():
            extra = {"ell": ["--backend", "mmot_nonmetric"]}.get(key, [])
            seed = [] if key == "seed" else ["--seed", "4"]
            cfg = tmp_path / f"{key}.cfg"
            cfg.write_text(f"{key} = {raw}\n")
            from_file = _build_config(parser.parse_args(
                ["distances", *seed, "--config", str(cfg), *extra]))
            from_flag = _build_config(parser.parse_args(
                ["distances", *seed, flag(key), raw, *extra]))
            assert from_flag == from_file
            assert getattr(from_flag, key) != getattr(
                _build_config(parser.parse_args(["distances", "--seed", "4", *extra])), key)

    def test_bad_flag_values_take_the_config_error_path(self, tmp_path, capsys):
        for key, raw, wording in (("backend", "bogus", "'bogus' not in"),
                                  ("trials", "lots", "cannot parse 'lots'"),
                                  ("seed", "abc", "cannot parse 'abc'"),
                                  ("seed", "-1", "must be an integer in [0, 2**64)")):
            seed = [] if key == "seed" else ["--seed", "1"]
            rc, _, err = run(["distances", *seed, flag(key), raw,
                              "--out-dir", str(tmp_path)], capsys)
            assert rc == 2
            assert err.startswith(f"error: config key {key!r}: ")
            assert wording in err
            cfg = tmp_path / f"{key}.cfg"
            cfg.write_text(f"{key} = {raw}\n")
            rc, _, file_err = run(["distances", *seed, "--config", str(cfg),
                                   "--out-dir", str(tmp_path)], capsys)
            assert rc == 2
            assert err == file_err
        assert not any(tmp_path.glob("*.json"))

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "0.5,nan"])
    def test_non_finite_thresholds_rejected(self, tmp_path, capsys, raw):
        # `=` keeps argparse from reading "-inf" as an option
        rc, out, err = run(["cluster", "--seed", "1", "--tensor", "t.csv",
                            f"--threshold-grid={raw}", "--out-dir", str(tmp_path)], capsys)
        assert rc == 2
        assert err.startswith("error: config key 'threshold_grid': thresholds must be finite")
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(f"threshold_grid = {raw}\n")
        rc, _, file_err = run(["cluster", "--seed", "1", "--tensor", "t.csv",
                               "--config", str(cfg), "--out-dir", str(tmp_path)], capsys)
        assert rc == 2
        assert file_err == err
        assert not any(tmp_path.glob("*.json"))
