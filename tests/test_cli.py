import json

import numpy as np
import pytest

import spectralorder as so
from spectralorder import errors, lattice
from spectralorder.cli import load_document, main, matrices_to_document


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
        _, again = run(capsys, *argv)
        rep.pop("timing"), again.pop("timing")
        assert json.dumps(rep, sort_keys=True) == json.dumps(again, sort_keys=True)

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

    def test_no_convergence_exit_four(self, tmp_path, capsys):
        mats = so.gen_instances(so.InstanceSpec(dim=4, seed=3, kind="positive", count=2))
        path = tmp_path / "pos.json"
        path.write_text(json.dumps(matrices_to_document([("m0", mats[0]), ("m1", mats[1])])))
        code, rep = run(
            capsys, "limits", "--input", str(path), "--formula", "kato", "--max-doublings", "3"
        )
        assert code == 4
        assert rep["error"]["type"] == "NoConvergence"
        assert [t["n"] for t in rep["error"]["residual_trace"]] == [2, 4, 8]

    def test_no_convergence_reports_extrapolant_residuals(self, tmp_path, capsys):
        mats = so.gen_instances(so.InstanceSpec(dim=4, seed=3, kind="positive", count=2))
        path = tmp_path / "pos.json"
        path.write_text(json.dumps(matrices_to_document([("m0", mats[0]), ("m1", mats[1])])))
        argv = ["limits", "--input", str(path), "--formula", "kato", "--max-doublings", "3"]
        code, rep = run(capsys, *argv)
        assert code == 4
        ext = [t["extrapolant_residual"] for t in rep["error"]["residual_trace"]]
        assert ext[0] is None and all(e > 0.0 for e in ext[1:])
        _, again = run(capsys, *argv)
        rep.pop("timing"), again.pop("timing")
        assert json.dumps(rep, sort_keys=True) == json.dumps(again, sort_keys=True)

    def test_harmonic_pair(self, fixture_path, capsys):
        code, rep = run(
            capsys, "limits", "--input", fixture_path, "--names", "a,b",
            "--formula", "harmonic",
        )
        assert code == 0
        assert rep["route_deviation"] < 1e-6


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

    def test_reports_byte_identical_modulo_timing(self, capsys):
        argv = ["verify", "sublattice_closure", "--dim", "3", "--cases", "6", "--seed", "3"]
        code1, rep1 = run(capsys, *argv)
        code2, rep2 = run(capsys, *argv)
        assert code1 == code2 == 0
        rep1.pop("timing"), rep2.pop("timing")
        assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)

    def test_env_var_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("SPECTRAL_LATTICE_SEED", "123")
        _, rep_env = run(capsys, "verify", "order_laws", "--dim", "3", "--cases", "2")
        monkeypatch.delenv("SPECTRAL_LATTICE_SEED")
        _, rep_flag = run(
            capsys, "verify", "order_laws", "--dim", "3", "--cases", "2", "--seed", "123"
        )
        rep_env.pop("timing"), rep_flag.pop("timing")
        assert rep_env == rep_flag


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

    def test_orthogonal_family(self, tmp_path, capsys):
        out = tmp_path / "orth.json"
        assert main(["gen", "--kind", "orthogonal_family", "--count", "3", "--dim", "6",
                     "--seed", "2", "--output", str(out)]) == 0
        from spectralorder.cli import load_document

        mats = list(load_document(str(out), so.DEFAULT_TOL).values())
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(mats[i].entries @ mats[j].entries, 2) < 1e-10

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
        "command, first, seed_var",
        [
            (["limits", "--formula", "kato", "--tol-cluster", "0"], "[[1, 0], [0, 3]]", None),
            (["limits", "--formula", "kato", "--tol-psd", "-1"], "[[1, 0], [0, 3]]", None),
            (["limits", "--formula", "kato", "--max-doublings", "0"], "[[1, 0], [0, 3]]", None),
            (["compare", "--names", "a,b"], "[[1, 0], [0, 3]]", "seven"),
            (["compare", "--names", "a,b"], "[[NaN, 0], [0, 3]]", None),
            (["lattice", "--mode", "sup"], "[[1, 0], [0, Infinity]]", None),
            (["limits", "--formula", "inverse", "--delta", "1e17"], "[[1, 0], [0, 3]]", None),
            (["compare", "--names", "a,b", "--tol-psd", "nan"], "[[1, 0], [0, 3]]", None),
            (["lattice", "--mode", "sup", "--tol-psd", "nan"], "[[1, 0], [0, 3]]", None),
            (["compare", "--names", "a,b", "--probes", "0"], "[[1, 0], [0, 3]]", None),
            (["compare", "--names", "a,b", "--probes", "-20"], "[[1, 0], [0, 3]]", None),
        ],
        ids=[
            "tol_cluster", "tol_psd", "max_doublings", "seed_var", "nan", "inf", "huge_delta",
            "compare_tol_psd_nan", "lattice_tol_psd_nan", "probes_zero", "probes_negative",
        ],
    )
    def test_exit_two_without_traceback(self, tmp_path, capsys, monkeypatch, command, first, seed_var):
        path = tmp_path / "doc.json"
        path.write_text(
            '{"format_version": "1", "dim": 2, "matrices": ['
            f'{{"name": "a", "re": {first}}}, {{"name": "b", "re": [[2, 0], [0, 2]]}}]}}'
        )
        if seed_var is not None:
            monkeypatch.setenv("SPECTRAL_LATTICE_SEED", seed_var)
        code = main([*command, "--input", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "document",
        [
            '{"format_version": "1", "dim": 2, "matrices": 5}',
            '{"format_version": "1", "dim": 2, "matrices": null}',
            '{"format_version": "1", "dim": 1e400, "matrices": []}',
        ],
        ids=["matrices_number", "matrices_null", "dim_overflow"],
    )
    def test_malformed_document_exits_two(self, tmp_path, capsys, document):
        path = tmp_path / "doc.json"
        path.write_text(document)
        code = main(["lattice", "--mode", "sup", "--input", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: InputError") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_lattice_midpoint_failure_exits_three(self, tmp_path, capsys):
        # Breakpoints 0, 0.9, 1.8 and 2.7 (times 1e-3) chain into one grid
        # point whose evaluation slack misses the last, so the family jumps
        # between grid points; the lattice route's midpoint check reports
        # it as a numerical failure.
        mats = [so.make_hermitian(np.diag([b, 1.0])) for b in (0.0, 0.9e-3, 1.8e-3, 2.7e-3)]
        path = tmp_path / "chained.json"
        path.write_text(json.dumps(matrices_to_document([(f"m{i}", m) for i, m in enumerate(mats)])))
        code = main(["lattice", "--input", str(path), "--mode", "sup", "--tol-cluster", "1e-3"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: InternalLatticeError") and err.count("\n") == 1
        assert "not constant" in err
        assert "Traceback" not in err

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


class TestTextFormat:
    def test_compare_text_output(self, fixture_path, capsys):
        code = main(["compare", "--input", fixture_path, "--names", "c,d", "--format", "text"])
        out = capsys.readouterr().out
        assert code == 0
        assert "loewner_leq: True" in out
