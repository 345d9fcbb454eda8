import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import spectralorder as so
from spectralorder import cli, errors, harness, lattice, limits
from spectralorder.cli import build_parser, load_document, main, matrices_to_document


FIXTURE = {
    "format_version": "1",
    "dim": 2,
    "matrices": [
        {"name": "x", "re": [[1, 0], [0, 0]]},
        {"name": "y", "re": [[1.5, 0.5], [0.5, 0.5]]},
        {"name": "a", "re": [[1, 0], [0, 3]]},
        {"name": "b", "re": [[2, 0], [0, 2]]},
        {"name": "c", "re": [[1, 0], [0, 2]]},
        {"name": "d", "re": [[2, 0], [0, 3]]},
        {"name": "p", "re": [[0.5, 0.5], [0.5, 0.5]]},
    ],
}


@pytest.fixture
def fixture_path(tmp_path):
    path = tmp_path / "set.json"
    path.write_text(json.dumps(FIXTURE))
    return str(path)


@pytest.fixture
def positive_path(tmp_path):
    """Two positive 4x4 matrices on which kato needs more than 3 doublings."""
    mats = so.gen_instances(so.InstanceSpec(dim=4, seed=3, kind="positive", count=2))
    path = tmp_path / "pos.json"
    path.write_text(json.dumps(matrices_to_document([("m0", mats[0]), ("m1", mats[1])])))
    return str(path)


# --delta is read by shifted and inverse, --normalize by kato, shifted and
# inverse; every other formula refuses the flag.
FORMULA_FLAGS = {"--delta": ("shifted", "inverse"), "--normalize": ("kato", "shifted", "inverse")}
FORMULAS = ("kato", "shifted", "inverse", "harmonic", "orthosum")

# The tolerance flags, and those that each report command takes: the flags of
# the Tolerances fields it reads. --tol-conv and --max-doublings, the flags of
# fields since removed, are taken by none.
FLAG_FIELDS = {
    "--tol-cluster": "cluster_tol",
    "--tol-psd": "psd_tol",
    "--tol-conv": None,
    "--max-doublings": None,
}
COMMAND_TOL_FLAGS = {
    "compare": {"--tol-cluster", "--tol-psd"},
    "lattice": {"--tol-cluster", "--tol-psd"},
    "limits": {"--tol-cluster", "--tol-psd"},
    "verify": {"--tol-cluster", "--tol-psd"},
}


def option_strings(command):
    """The option strings that ``command``'s parser accepts, help aside."""
    sub = next(a for a in build_parser()._actions if a.dest == "command").choices[command]
    return [s for a in sub._actions if a.dest != "help" for s in a.option_strings]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


class TestCompare:
    def test_both_orders_hold(self, fixture_path, capsys):
        code, rep = run(capsys, "compare", "--input", fixture_path, "--names", "c,d")
        assert code == 0
        assert rep["loewner_leq"] is True
        assert rep["spectral_leq"]["holds"] is True

    def test_loewner_yes_spectral_no(self, fixture_path, capsys):
        code, rep = run(capsys, "compare", "--input", fixture_path, "--names", "x,y")
        assert code == 0
        assert rep["loewner_leq"] is True
        assert rep["spectral_leq"]["holds"] is False
        assert 0.29 < rep["spectral_leq"]["witness_lambda"] < 1.0
        assert rep["spectral_leq"]["defect"] > 0
        assert rep["monotone_probe"]["status"] == "refuted"

    def test_missing_name_exit_two(self, fixture_path, capsys):
        assert main(["compare", "--input", fixture_path, "--names", "x,nope"]) == 2

    def test_missing_file_exit_two(self, capsys):
        assert main(["compare", "--input", "/does/not/exist.json", "--names", "a,b"]) == 2

    def test_bad_json_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["compare", "--input", str(bad), "--names", "a,b"]) == 2

    def test_wrong_name_count_exit_two(self, fixture_path, capsys):
        assert main(["compare", "--input", fixture_path, "--names", "a,b,x"]) == 2

    def test_decomposes_each_operand_once_per_route(self, tmp_path, capsys, monkeypatch):
        # x precedes sup(x, r), so the probe runs all 24 functions.
        x, r = so.gen_instances(so.InstanceSpec(dim=8, seed=3, kind="generic", count=2))
        y = so.spectral_sup([x, r])
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(matrices_to_document([("x", x), ("y", y)])))
        x, y = load_document(str(path), so.DEFAULT_TOL).values()
        verdict = so.spectral_leq(x, y)
        borderline = so.borderline_gap(x, y)
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        code, rep = run(capsys, "compare", "--input", str(path), "--names", "x,y")
        assert code == 0
        assert rep["monotone_probe"] == {"status": "consistent", "probes_run": 24}
        # One per operand in the verdict and one per operand in the
        # monotone probe; the borderline flag needs eigenvalues only.
        assert len(calls) == 4
        assert rep["spectral_leq"]["holds"] is verdict.holds
        assert rep["spectral_leq"].get("witness_lambda") == verdict.witness_lambda
        assert rep["spectral_leq"].get("defect") == verdict.defect
        assert rep["borderline_clustering"] is borderline


class TestLattice:
    def test_sup_document(self, fixture_path, tmp_path, capsys):
        out = tmp_path / "sup.json"
        code, rep = run(
            capsys, "lattice", "--input", fixture_path, "--names", "a,b",
            "--mode", "sup", "--output", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["format_version"] == "1"
        got = np.asarray(doc["matrices"][0]["re"])
        assert np.allclose(got, np.diag([2.0, 3.0]), atol=1e-9)
        assert rep["result_family"]["breakpoints"] == pytest.approx([2.0, 3.0])
        assert rep["result_family"]["ranks"] == [1, 2]

    def test_inf_of_projection_pair_is_zero(self, fixture_path, capsys):
        code, rep = run(
            capsys, "lattice", "--input", fixture_path, "--names", "x,p", "--mode", "inf"
        )
        assert code == 0
        got = np.asarray(rep["result_document"]["matrices"][0]["re"])
        assert np.allclose(got, 0.0, atol=1e-9)
        # one breakpoint, at 0, carrying both dimensions
        assert rep["result_family"]["ranks"] == [2]

    def test_singleton_echo(self, fixture_path, capsys):
        code, rep = run(
            capsys, "lattice", "--input", fixture_path, "--names", "a", "--mode", "sup"
        )
        assert code == 0
        got = np.asarray(rep["result_document"]["matrices"][0]["re"])
        assert np.allclose(got, np.diag([1.0, 3.0]), atol=1e-10)

    @pytest.mark.parametrize("mode", ["sup", "inf"])
    def test_decomposes_like_the_library(self, tmp_path, capsys, monkeypatch, mode):
        mats = so.gen_instances(so.InstanceSpec(dim=6, seed=4, kind="generic", count=3))
        path = tmp_path / "set.json"
        path.write_text(json.dumps(matrices_to_document([(f"m{i}", m) for i, m in enumerate(mats)])))
        loaded = list(load_document(str(path), so.DEFAULT_TOL).values())
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        lattice.lattice_family(loaded, mode)
        library = len(calls)
        calls.clear()
        code, rep = run(capsys, "lattice", "--input", str(path), "--mode", mode)
        assert code == 0
        assert len(calls) == library
        op = so.spectral_sup if mode == "sup" else so.spectral_inf
        doc = matrices_to_document([(mode, op(loaded))])
        assert rep["result_document"] == json.loads(json.dumps(doc))

    def test_chained_cluster_takes_its_largest_value(self, tmp_path, capsys):
        # Breakpoints 0, 0.9, 1.8 and 2.7 (times 1e-3) chain into one grid
        # cluster at cluster_tol 1e-3; its largest value is the exact sup.
        mats = [so.make_hermitian(np.diag([b, 1.0])) for b in (0.0, 0.9e-3, 1.8e-3, 2.7e-3)]
        path = tmp_path / "chained.json"
        path.write_text(json.dumps(matrices_to_document([(f"m{i}", m) for i, m in enumerate(mats)])))
        code, rep = run(capsys, "lattice", "--input", str(path), "--mode", "sup", "--tol-cluster", "1e-3")
        assert code == 0
        got = np.asarray(rep["result_document"]["matrices"][0]["re"])
        assert np.allclose(got, np.diag([2.7e-3, 1.0]), rtol=0.0, atol=1e-12)

    def test_generated_set_in_the_cluster_band(self, tmp_path, capsys):
        # Eigenvalues that agree to about the cluster width: the sup exists
        # and bounds every input under both orders.
        path, out = tmp_path / "set.json", tmp_path / "sup.json"
        assert main(["gen", "--kind", "positive", "--dim", "4", "--count", "4",
                     "--spread", "1e6", "--seed", "5", "--output", str(path)]) == 0
        code, _ = run(capsys, "lattice", "--input", str(path), "--mode", "sup", "--output", str(out))
        assert code == 0
        (sup,) = load_document(str(out), so.DEFAULT_TOL).values()
        for m in load_document(str(path), so.DEFAULT_TOL).values():
            assert so.spectral_leq(m, sup).holds and so.loewner_leq(m, sup)


class TestLimits:
    def test_kato_commuting(self, fixture_path, capsys):
        code, rep = run(
            capsys, "limits", "--input", fixture_path, "--names", "a,b", "--formula", "kato"
        )
        assert code == 0
        assert rep["route_deviation"] < 1e-6
        residuals = [t["residual"] for t in rep["residual_trace"]]
        assert len(residuals) >= 2
        # commuting spectra converge monotonically
        assert all(b <= a * 1.001 + 1e-15 for a, b in zip(residuals, residuals[1:]))

    def test_trace_reports_extrapolant_residuals(self, fixture_path, capsys):
        argv = ["limits", "--input", fixture_path, "--names", "a,p", "--formula", "kato"]
        code, rep = run(capsys, *argv)
        assert code == 0
        ext = [t["extrapolant_residual"] for t in rep["residual_trace"]]
        assert ext[0] is None and all(isinstance(e, float) for e in ext[1:])
        # the run stops on the extrapolated rule, at the last entry
        assert ext[-1] < 1e-9 * (1.0 + np.linalg.norm(rep["limit_route"]["re"], 2))

    def test_orthosum_exact(self, tmp_path, capsys):
        doc = {
            "format_version": "1",
            "dim": 4,
            "matrices": [
                {"name": "u", "re": np.diag([1.0, -2.0, 0.0, 0.0]).tolist()},
                {"name": "v", "re": np.diag([0.0, 0.0, 3.0, -1.0]).tolist()},
            ],
        }
        path = tmp_path / "orth.json"
        path.write_text(json.dumps(doc))
        code, rep = run(capsys, "limits", "--input", str(path), "--formula", "orthosum")
        assert code == 0
        assert rep["route_deviation"] < 1e-8
        assert rep["residual_trace"] == []

    def test_inverse_rejects_singular_shift(self, fixture_path, capsys):
        code = main(
            ["limits", "--input", fixture_path, "--names", "x,y",
             "--formula", "inverse", "--delta", "0.0"]
        )
        assert code == 2

    def test_harmonic_needs_two(self, fixture_path, capsys):
        code = main(
            ["limits", "--input", fixture_path, "--names", "a,b,p", "--formula", "harmonic"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flag,formula",
        [(f, m) for f, readers in FORMULA_FLAGS.items() for m in FORMULAS if m not in readers],
    )
    def test_unread_formula_flag_exits_two(self, fixture_path, capsys, flag, formula):
        argv = ["limits", "--input", fixture_path, "--names", "c,d", "--formula", formula, flag]
        code = main(argv + (["0.5"] if flag == "--delta" else []))
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: InputError: --formula {formula} does not read {flag}\n"

    @pytest.mark.parametrize(
        "flag,formula", [(f, m) for f, readers in FORMULA_FLAGS.items() for m in readers]
    )
    def test_read_formula_flag_exits_zero(self, fixture_path, capsys, flag, formula):
        argv = ["limits", "--input", fixture_path, "--names", "c,d", "--formula", formula, flag]
        code, rep = run(capsys, *argv, *(["0.5"] if flag == "--delta" else []))
        assert code == 0 and rep["route_deviation"] < 1e-6

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("formula", ["shifted", "inverse"])
    def test_non_finite_delta_exits_two(self, fixture_path, capsys, formula, value):
        argv = ["limits", "--input", fixture_path, "--names", "c,d", "--formula", formula]
        code = main([*argv, f"--delta={value}"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: InvalidParameterError: shift must be finite") and err.count("\n") == 1

    def test_no_convergence_exit_four(self, positive_path, capsys, monkeypatch):
        monkeypatch.setattr(limits, "_MAX_DOUBLINGS", 3)
        code, rep = run(capsys, "limits", "--input", positive_path, "--formula", "kato")
        assert code == 4
        assert rep["error"]["type"] == "NoConvergence"
        assert [t["n"] for t in rep["error"]["residual_trace"]] == [2, 4, 8]

    def test_no_convergence_reports_extrapolant_residuals(self, positive_path, capsys, monkeypatch):
        monkeypatch.setattr(limits, "_MAX_DOUBLINGS", 3)
        code, rep = run(capsys, "limits", "--input", positive_path, "--formula", "kato")
        assert code == 4
        ext = [t["extrapolant_residual"] for t in rep["error"]["residual_trace"]]
        assert ext[0] is None and all(e > 0.0 for e in ext[1:])

    def test_harmonic_pair(self, fixture_path, capsys):
        code, rep = run(
            capsys, "limits", "--input", fixture_path, "--names", "a,b",
            "--formula", "harmonic",
        )
        assert code == 0
        assert rep["route_deviation"] < 1e-6

    def test_trace_equals_library_records(self, fixture_path, capsys):
        code, rep = run(
            capsys, "limits", "--input", fixture_path, "--names", "a,p", "--formula", "kato"
        )
        assert code == 0
        named = load_document(fixture_path, so.DEFAULT_TOL)
        mats = [named["a"], named["p"]]
        _, trace = limits.run_schedule(so.power_sup_iterates(mats, delta=0.0), "sup")
        reported = [(t["n"], t["residual"], t["extrapolant_residual"]) for t in rep["residual_trace"]]
        assert len(trace) >= 3
        assert reported == trace


class TestVerify:
    def test_order_laws(self, capsys):
        code, rep = run(capsys, "verify", "order_laws", "--dim", "3", "--cases", "8", "--seed", "7")
        assert code == 0
        assert rep["failures"] == []

    def test_vigier(self, capsys):
        code, rep = run(capsys, "verify", "vigier", "--dim", "3", "--cases", "4", "--seed", "1")
        assert code == 0

    def test_unknown_suite_exit_two(self, capsys):
        assert main(["verify", "bogus_suite"]) == 2

    def test_env_var_seed(self, capsys, monkeypatch):
        # --seed is the one seed source: the environment is not read
        monkeypatch.setenv("SPECTRAL_LATTICE_SEED", "9")
        assert run(capsys, "verify", "order_laws", "--dim", "2", "--cases", "1")[1]["seed"] == 0

    def test_failures_exit_one(self, capsys, monkeypatch):
        # a supremum off by 1e-3 I breaks idempotence in every case
        wrong = lambda mats, tol: lattice.spectral_sup(mats, tol) + 1e-3 * so.identity(mats[0].dim)  # noqa: E731
        monkeypatch.setattr(harness, "spectral_sup", wrong)
        code, rep = run(capsys, "verify", "order_laws", "--dim", "3", "--cases", "2", "--seed", "7")
        assert code == 1
        first = rep["failures"][0]
        assert set(first) == {"case", "seed", "property", "witness"}
        assert first["seed"] == so.case_seed(7, first["case"])


class TestPipeline:
    """main times every report command as a whole and adds the one
    "timing" key; the rest of a report is byte-identical across reruns."""

    @pytest.mark.parametrize(
        "argv, exit_code",
        [
            (["compare", "--input", "FIXTURE", "--names", "x,y"], 0),
            (["lattice", "--input", "FIXTURE", "--mode", "sup"], 0),
            (["limits", "--input", "FIXTURE", "--names", "a,p", "--formula", "kato"], 0),
            (["limits", "--input", "POSITIVE", "--formula", "kato"], 4),
            (["verify", "sublattice_closure", "--dim", "3", "--cases", "6", "--seed", "3"], 0),
        ],
        ids=["compare", "lattice", "limits", "limits_no_convergence", "verify"],
    )
    def test_reports_byte_identical_modulo_timing(
        self, fixture_path, positive_path, capsys, monkeypatch, argv, exit_code
    ):
        if exit_code == 4:  # a ladder of three doublings, which kato on POSITIVE outruns
            monkeypatch.setattr(limits, "_MAX_DOUBLINGS", 3)
        argv = [{"FIXTURE": fixture_path, "POSITIVE": positive_path}.get(a, a) for a in argv]
        stable = []
        for _ in range(2):
            assert main(argv) == exit_code
            out = capsys.readouterr().out
            assert out.count('"timing"') == 1
            report = json.loads(out)
            timing = report.pop("timing")
            assert list(timing) == ["wall_time_s"] and timing["wall_time_s"] > 0.0
            stable.append(json.dumps(report, sort_keys=True, separators=(",", ":")))
        assert stable[0] == stable[1]


class TestParserReuse:
    """main parses with one parser per process, built on the first call."""

    def test_import_builds_no_parser(self):
        script = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
            "import spectralorder.cli as cli\n"
            "assert built == [], 'importing the CLI built a parser'\n"
            "cli.build_parser()\n"
            "assert built, 'no parser was counted'\n"
        )
        src = str(Path(so.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_flag_seed_does_not_stick(self, capsys):
        argv = ["verify", "order_laws", "--dim", "2", "--cases", "1"]
        assert run(capsys, *argv, "--seed", "5")[1]["seed"] == 5
        assert run(capsys, *argv)[1]["seed"] == 0

    def test_usage_error_leaves_parser_unchanged(self, fixture_path, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        cli._parser.cache_clear()
        argv = ["compare", "--input", fixture_path, "--names", "x,y", "--seed", "4"]

        def stable():
            code, rep = run(capsys, *argv)
            rep.pop("timing")
            return code, json.dumps(rep, sort_keys=True)

        first = stable()
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--input", fixture_path, "--seed", "x"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert stable() == first
        assert built == [1]


class TestGen:
    def test_projection_round_trip(self, tmp_path, capsys):
        out = tmp_path / "proj.json"
        assert main(["gen", "--kind", "projection", "--dim", "2", "--seed", "1",
                     "--output", str(out)]) == 0
        from spectralorder.cli import load_document, matrices_to_document

        named = load_document(str(out), so.DEFAULT_TOL)
        assert so.is_projection(named["m0"])
        # re-serialization is bit identical
        doc = matrices_to_document(list(named.items()))
        assert json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n" == out.read_text()

    def test_document_refuses_mixed_dimensions(self):
        with pytest.raises(cli.InputError, match="share a dimension"):
            matrices_to_document([("a", so.identity(2)), ("b", so.identity(3))])

    def test_orthogonal_family(self, tmp_path, capsys):
        out = tmp_path / "orth.json"
        assert main(["gen", "--kind", "orthogonal_family", "--count", "3", "--dim", "6",
                     "--seed", "2", "--output", str(out)]) == 0
        from spectralorder.cli import load_document

        mats = list(load_document(str(out), so.DEFAULT_TOL).values())
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(mats[i].entries @ mats[j].entries, 2) < 1e-10

    @pytest.mark.parametrize("flag", [["--tol-psd", "-1"], ["--format", "text"]])
    def test_report_flags_are_usage_errors(self, capsys, flag):
        # gen writes a document, so it takes no tolerance; no command has --format
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--kind", "generic", "--dim", "2", *flag])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv",
        [["gen", "--kind", "generic", "--dim", "2"], ["compare", "--names", "c,d"], ["verify", "order_laws"]],
    )
    def test_negative_seed_exits_two(self, fixture_path, capsys, argv):
        if argv[0] == "compare":
            argv = [*argv, "--input", fixture_path]
        assert main([*argv, "--seed=-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed" in err and err.count("\n") == 1

    def test_commuting_family(self, capsys):
        code, doc = run(capsys, "gen", "--kind", "commuting_family", "--count", "3",
                        "--dim", "4", "--seed", "3")
        assert code == 0
        mats = [
            np.asarray(m["re"]) + 1j * np.asarray(m["im"]) for m in doc["matrices"]
        ]
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(mats[i] @ mats[j] - mats[j] @ mats[i], 2) < 1e-10


class TestMalformedInput:
    @pytest.mark.parametrize(
        "command, first",
        [
            (["limits", "--formula", "kato", "--tol-cluster", "0"], "[[1, 0], [0, 3]]"),
            (["limits", "--formula", "kato", "--tol-psd", "-1"], "[[1, 0], [0, 3]]"),
            (["compare", "--names", "a,b"], "[[NaN, 0], [0, 3]]"),
            (["lattice", "--mode", "sup"], "[[1, 0], [0, Infinity]]"),
            (["limits", "--formula", "inverse", "--delta", "1e17"], "[[1, 0], [0, 3]]"),
            (["compare", "--names", "a,b", "--tol-psd", "nan"], "[[1, 0], [0, 3]]"),
            (["lattice", "--mode", "sup", "--tol-psd", "nan"], "[[1, 0], [0, 3]]"),
            (["compare", "--names", "a,b"], "[[0, 1.7e308], [-1.7e308, 0]]"),
            (["lattice", "--mode", "sup", "--tol-cluster", "inf"], "[[1, 0], [0, 3]]"),
            (["compare", "--names", "a,b", "--tol-psd", "inf"], "[[1, 0], [0, 3]]"),
        ],
        ids=[
            "tol_cluster", "tol_psd", "nan", "inf", "huge_delta",
            "compare_tol_psd_nan", "lattice_tol_psd_nan",
            "asymmetry_near_float_max", "lattice_tol_cluster_inf",
            "compare_tol_psd_inf",
        ],
    )
    def test_exit_two_without_traceback(self, tmp_path, capsys, command, first):
        path = tmp_path / "doc.json"
        path.write_text(
            '{"format_version": "1", "dim": 2, "matrices": ['
            f'{{"name": "a", "re": {first}}}, {{"name": "b", "re": [[2, 0], [0, 2]]}}]}}'
        )
        code = main([*command, "--input", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "document",
        [
            b'{"format_version": "1", "dim": 2, "matrices": 5}',
            b'{"format_version": "1", "dim": 2, "matrices": null}',
            b'{"format_version": "1", "dim": 1e400, "matrices": []}',
            b'\xff\xfe{"format_version": "1"}',
            b"[" * 100_000 + b"]" * 100_000,
            b'{"format_version": "2", "dim": 1, "matrices": [{"name": "a", "re": [[1]]}]}',
            b'{"format_version": "1", "dim": 1, "matrices": [{"re": [[1]]}]}',
            b'{"format_version": "1", "dim": 1, "matrices": [{"name": "a", "re": [[1]]}, {"name": "a", "re": [[2]]}]}',
            b'{"format_version": "1", "dim": 2, "matrices": [{"name": "a", "re": [[1]]}]}',
            b'{"format_version": "1", "dim": 2, "matrices": []}',
        ],
        ids=[
            "matrices_number", "matrices_null", "dim_overflow", "not_utf8", "nested_too_deep",
            "format_version", "malformed_entry", "duplicate_name", "wrong_shape", "no_matrices",
        ],
    )
    def test_malformed_document_exits_two(self, tmp_path, capsys, document):
        path = tmp_path / "doc.json"
        path.write_bytes(document)
        code = main(["lattice", "--mode", "sup", "--input", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: InputError") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command",
        [["lattice", "--input", "FIXTURE", "--mode", "sup"], ["gen", "--kind", "generic", "--dim", "2"]],
        ids=["lattice", "gen"],
    )
    def test_unwritable_output_exits_two(self, fixture_path, tmp_path, capsys, command):
        out = tmp_path / "no" / "such" / "dir" / "out.json"
        code = main([fixture_path if a == "FIXTURE" else a for a in command] + ["--output", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: InputError: cannot write ")
        assert captured.err.count("\n") == 1

    def test_every_error_class_has_an_exit_code(self):
        classes = [
            c for c in vars(errors).values()
            if isinstance(c, type) and issubclass(c, errors.SpectralOrderError)
        ]
        concrete = [c for c in classes if c is not errors.SpectralOrderError]
        assert len(concrete) > 20
        for c in concrete:
            assert issubclass(c, (errors.InvalidInputError, errors.NumericalError)), c
        assert errors.NoConvergenceError.exit_code == 4


class TestLibraryBoundary:
    MINIMAL_ARGV = {
        "compare": ["--input", "x.json", "--names", "a,b"],
        "lattice": ["--input", "x.json", "--mode", "sup"],
        "limits": ["--input", "x.json", "--formula", "kato"],
        "verify": [so.SUITE_IDS[0]],
        "gen": ["--kind", "generic", "--dim", "2"],
    }

    @pytest.mark.parametrize("command", sorted(COMMAND_TOL_FLAGS))
    def test_tolerance_defaults_come_from_library(self, command):
        flags = set(option_strings(command)) & set(FLAG_FIELDS)
        assert flags == COMMAND_TOL_FLAGS[command]
        args = vars(build_parser().parse_args([command, *self.MINIMAL_ARGV[command]]))
        fields = [FLAG_FIELDS[f] for f in flags]
        assert {f: args[f] for f in fields} == {f: getattr(so.DEFAULT_TOL, f) for f in fields}

    @pytest.mark.parametrize(
        "command,flag",
        [(c, f) for c, flags in COMMAND_TOL_FLAGS.items() for f in FLAG_FIELDS if f not in flags],
    )
    def test_unread_tolerance_flag_is_usage_error(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, *self.MINIMAL_ARGV[command], flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    def test_unflagged_fields_come_from_library(self, fixture_path, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "Tolerances", lambda **kw: built.append(kw) or so.Tolerances(**kw))
        assert main(["lattice", "--input", fixture_path, "--mode", "sup", "--tol-psd", "2e-9"]) == 0
        assert built == [{"cluster_tol": so.DEFAULT_TOL.cluster_tol, "psd_tol": 2e-9}]

    @pytest.mark.parametrize(
        "command,flag",
        [("compare", ["--probes", "8"]), ("lattice", ["--format", "text"]), ("verify", ["--format", "json"])],
    )
    def test_removed_flags_are_usage_errors(self, capsys, command, flag):
        # a report is always JSON, and compare probes at the library default
        with pytest.raises(SystemExit) as exc:
            main([command, *self.MINIMAL_ARGV[command], *flag])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.endswith(f"error: unrecognized arguments: {' '.join(flag)}\n")
        assert captured.err.count("error: ") == 1

    def test_gen_has_no_tolerance_flags(self):
        assert not set(option_strings("gen")) & set(FLAG_FIELDS)

    def test_every_subcommand_has_minimal_argv(self):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        assert set(sub.choices) == set(self.MINIMAL_ARGV)

    def test_imports_only_public_library_names(self):
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        private = [
            f"{node.module}.{alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").startswith("spectralorder"))
            for alias in node.names
            if alias.name.startswith("_")
        ]
        assert private == []


FUZZ_EXPONENTS = (-300, -150, -20, 0, 20, 60, 100, 150, 250, 300, 307.5)
FUZZ_CALLS = (
    ("compare", "--names", "a,b"),
    ("compare", "--names", "a,a"),
    ("lattice", "--mode", "sup"),
    ("lattice", "--mode", "inf"),
    ("limits", "--formula", "kato"),
    ("limits", "--formula", "shifted"),
    ("limits", "--formula", "inverse"),
    ("limits", "--formula", "harmonic"),
)


def fuzz_document(seed, exponent):
    """Two seeded Hermitian matrices, d 1-4, the second positive for even
    seeds; entries normalized to a largest modulus of 1, then scaled by
    10**exponent."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 5))
    mats = []
    for _ in range(2):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = (g + g.conj().T) / 2.0
        if seed % 2 == 0:
            m = m @ m
            m = 0.5 * m + 0.5 * m.conj().T
        mats.append((m / np.abs(m).max()) * 10.0**exponent)
    return {
        "format_version": "1",
        "dim": dim,
        "matrices": [
            {"name": name, "re": m.real.tolist(), "im": m.imag.tolist()}
            for name, m in zip("ab", mats)
        ],
    }


# The only input reasons a fuzz document can give a limit formula for exit 2:
# the error it names and whether the eigenvalues lam, with s the power of two
# at or above max |lam|, give that reason.
EXIT_TWO_REASONS = {
    "kato": ("DeltaTooLargeError", lambda lam, s: lam.min() < 0.0),
    "harmonic": ("NotInvertibleError", lambda lam, s: lam.min() < 1e-6 * s),
}


class TestScaleFuzz:
    """Every command keeps the exit-code contract at every scale up to the
    float maximum: a report or one ``error:`` line, never a traceback or a
    RuntimeWarning, and compare and lattice always answer. Exit 2 comes only
    from a reason in the document: kato's zero shift on a negative
    eigenvalue, or harmonic on one below the invertibility floor."""

    @pytest.mark.parametrize("exponent", FUZZ_EXPONENTS)
    def test_exit_codes(self, tmp_path, capsys, exponent):
        for seed in range(16):
            doc = fuzz_document(seed, exponent)
            path = tmp_path / f"doc{seed}.json"
            path.write_text(json.dumps(doc))
            for call in FUZZ_CALLS:
                argv = [*call, "--input", str(path)]
                code = main(argv)
                err = capsys.readouterr().err
                where = f"seed {seed}: {' '.join(call)}"
                assert code in (0, 2, 3, 4), where
                assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), where
                if call[0] != "limits":
                    assert code == 0, where
                if code == 2:
                    assert call[-1] in EXIT_TWO_REASONS, where
                    name, has_reason = EXIT_TWO_REASONS[call[-1]]
                    lam = np.concatenate([
                        np.linalg.eigvalsh(np.asarray(m["re"]) + 1j * np.asarray(m["im"]))
                        for m in doc["matrices"]
                    ])
                    s = 2.0 ** min(np.ceil(np.log2(np.abs(lam).max())), 1023)
                    assert err.startswith(f"error: {name}: ") and has_reason(lam, s), where


# Values of the flags the property test draws: zero, negative, non-finite and
# ordinary ones. ``None`` is a switch given bare. No command takes --probes or
# --format, so they are drawn only as stray flags.
FLOAT_VALUES = ("0", "-1", "nan", "inf", "-inf", "1e-12", "0.5", "1e300")
INT_VALUES = ("0", "-1", "1", "3", "nan", "inf")
PROPERTY_VALUES = {
    **{flag: FLOAT_VALUES for flag in ("--tol-cluster", "--tol-psd", "--delta", "--spread")},
    **{flag: INT_VALUES for flag in ("--probes", "--seed")},
    "--format": ("json", "text"),
    "--normalize": (None,),
}


class TestCliProperty:
    """Any report command, on a seeded document at any scale from 1e-300 to
    1e307, with any subset of its flags at zero, negative, non-finite or
    ordinary values, and perhaps one flag it does not take: an exit code of
    the contract, at most one ``error:`` line, no exception and no
    RuntimeWarning. Usage errors are argparse's (SystemExit 2)."""

    @settings(
        max_examples=300,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_exit_code_contract(self, tmp_path, data):
        command = data.draw(st.sampled_from(("compare", "lattice", "limits", "verify")))
        if command == "verify":
            suite = data.draw(st.sampled_from(so.SUITE_IDS))
            argv = ["verify", suite, f"--dim={data.draw(st.integers(2, 4))}", f"--cases={data.draw(st.integers(1, 2))}"]
        else:
            doc = fuzz_document(data.draw(st.integers(0, 2**16)), data.draw(st.integers(-300, 307)))
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(doc))
            argv = [command, f"--input={path}"]
            if command == "compare":
                argv.append(f"--names={data.draw(st.sampled_from(('a,b', 'a,a', 'b,a')))}")
            elif command == "lattice":
                argv.append(f"--mode={data.draw(st.sampled_from(('sup', 'inf')))}")
            else:
                argv.append(f"--formula={data.draw(st.sampled_from(FORMULAS))}")
        accepted = option_strings(command)
        drawn = {}
        for flag in data.draw(st.lists(st.sampled_from(sorted(set(accepted) & set(PROPERTY_VALUES))), unique=True)):
            drawn[flag] = value = data.draw(st.sampled_from(PROPERTY_VALUES[flag]))
            argv.append(flag if value is None else f"{flag}={value}")
        stray = data.draw(st.none() | st.sampled_from(sorted(set(PROPERTY_VALUES) - set(accepted))))
        if stray is not None:
            argv += [stray, "1"]
        unparsable = drawn.get("--seed") in ("nan", "inf")

        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            try:
                code, usage = main(argv), False
            except SystemExit as exc:
                code, usage = exc.code, True
        err = err.getvalue()
        where = " ".join(argv)
        assert usage == (stray is not None or unparsable), where
        if usage:
            assert code == 2 and "error: " in err, where
            return
        assert code in (0, 2, 3, 4) or (code == 1 and command == "verify"), where
        assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), where
        non_finite = ("nan", "inf", "-inf")
        if any(drawn.get(flag) in non_finite for flag in ("--tol-cluster", "--tol-psd", "--delta")):
            assert code == 2, where
