"""End-to-end tests of the command line reports.

Every invocation goes through cli.main(argv) in process; stdout is parsed
back as JSON, so these double as schema checks.
"""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from isopar import cli, errors, hopf, polyfam, riccati, spherelevel


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


@pytest.fixture
def fresh_members():
    """An empty member cache before and after the test, so a patched make_*
    sees every build the run asks for."""
    cli._member.cache_clear()
    yield
    cli._member.cache_clear()


BASE_KEYS = {
    "schema", "command", "params", "seed", "generator",
    "samples", "max_residual", "pass", "details",
}


def assert_report_shape(doc, command):
    assert BASE_KEYS <= set(doc)
    assert doc["schema"] == "isopar-report/1"
    assert doc["command"] == command
    assert doc["generator"] == "PCG64"
    for row in doc["details"]:
        assert set(row) == {"name", "residual", "tolerance", "ref"}


class TestVerifyCm:
    def test_cartan_passes(self, capsys):
        code, doc = run_json(
            capsys, ["verify-cm", "--family", "cartan", "--m", "1",
                     "--samples", "40"]
        )
        assert code == 0
        assert_report_shape(doc, "verify-cm")
        assert doc["pass"] is True
        names = [row["name"] for row in doc["details"]]
        assert "ambient-gradient-norm" in names
        assert "sphere-laplacian-profile" in names
        assert doc["max_residual"] < 1e-8

    def test_fkm_passes(self, capsys):
        code, doc = run_json(
            capsys, ["verify-cm", "--family", "fkm", "--m", "2", "--r", "4",
                     "--samples", "40"]
        )
        assert code == 0
        assert doc["pass"] is True

    def test_impossible_tolerance_fails_cleanly(self, capsys):
        code, doc = run_json(
            capsys, ["verify-cm", "--family", "cartan", "--m", "1",
                     "--samples", "10", "--tol", "1e-30"]
        )
        assert code == 1
        assert doc["pass"] is False
        assert any(row["residual"] > row["tolerance"] for row in doc["details"])

    @pytest.mark.usefixtures("fresh_members")
    @pytest.mark.parametrize("command", ["verify-cm", "verify-hidden"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-8"])
    def test_bad_tolerance_is_usage_error(self, capsys, monkeypatch, command, tol):
        def no_build(m):
            raise AssertionError("family built before --tol was checked")

        monkeypatch.setattr(cli, "make_cartan", no_build)
        code, doc = run_json(
            capsys, [command, "--family", "cartan", "--m", "1", f"--tol={tol}"]
        )
        assert code == 2
        assert doc["error"]["type"] == "ConstructionError"
        assert "--tol" in doc["error"]["message"]

    def test_bad_fkm_pair_is_usage_error(self, capsys):
        code, doc = run_json(
            capsys, ["verify-cm", "--family", "fkm", "--m", "2", "--r", "3"]
        )
        assert code == 2
        assert doc["pass"] is False
        assert doc["error"]["type"] == "ConstructionError"

    def test_missing_m_is_usage_error(self, capsys):
        code, doc = run_json(capsys, ["verify-cm", "--family", "cartan"])
        assert code == 2
        assert "needs --m" in doc["error"]["message"]

    def test_unknown_family_rejected_by_parser(self, capsys):
        # A usage error is reported as JSON with exit 2, like any other.
        for argv in (["verify-cm", "--family", "veronese"],
                     ["verify-cm", "--family", "cartan", "--m", "1", "--samples", "x"]):
            code = cli.main(argv)
            captured = capsys.readouterr()
            assert code == 2
            assert captured.err == ""
            doc = json.loads(captured.out)
            assert doc["command"] == "verify-cm"
            assert doc["pass"] is False
            assert doc["error"]["type"] == "ConstructionError"
            assert doc["error"]["message"].startswith("isopar verify-cm: argument --")
            assert argv[-1] in doc["error"]["message"]
        code, doc = run_json(capsys, ["--seed", "3", "verify-cm"])
        assert code == 2
        assert doc["command"] is None  # a flag is not a command


class TestVerifyHidden:
    def test_cartan_defaults_cover_all_five(self, capsys):
        code, doc = run_json(
            capsys, ["verify-hidden", "--family", "cartan", "--m", "1",
                     "--samples", "30"]
        )
        assert code == 0
        names = [row["name"] for row in doc["details"]]
        for k in range(1, 6):
            assert f"hessian-minor-identity-{k}" in names

    def test_explicit_k_list(self, capsys):
        code, doc = run_json(
            capsys, ["verify-hidden", "--family", "fkm", "--m", "2",
                     "--r", "4", "--samples", "20", "--k", "2,3"]
        )
        assert code == 0
        names = [row["name"] for row in doc["details"]]
        assert "power-sum-closed-form-2" in names
        assert "power-sum-closed-form-3" in names

    def test_unrecorded_k_is_usage_error(self, capsys):
        code, doc = run_json(
            capsys, ["verify-hidden", "--family", "cartan", "--m", "1",
                     "--k", "9"]
        )
        assert code == 2
        assert "no recorded closed form" in doc["error"]["message"]

    def test_small_ambient_rows_are_informational(self, capsys):
        # cartan m = 1 lives in dimension 5 (n = 3), so the k = 4 power sum
        # row must not gate the verdict
        code, doc = run_json(
            capsys, ["verify-hidden", "--family", "cartan", "--m", "1",
                     "--samples", "20", "--k", "4"]
        )
        assert code == 0
        row = next(
            r for r in doc["details"] if r["name"] == "power-sum-closed-form-4"
        )
        assert row["tolerance"] is None


class TestSampleBlocks:
    """verify-cm and verify-hidden evaluate their samples in blocks."""

    # two full blocks and a partial one
    SAMPLES = 2 * spherelevel.SAMPLE_BLOCK + 3

    @pytest.mark.parametrize(
        "argv,sampler,kernel",
        [
            (["verify-cm", "--family", "fkm", "--m", "2", "--r", "4"],
             "_ball_points", "cm_residuals"),
            (["verify-cm", "--family", "cartan", "--m", "2"],
             "regular_sphere_points", "transnormal_residuals"),
            (["verify-hidden", "--family", "ot", "--r", "1", "--k", "2,3"],
             "_ball_points", "hidden_rho_residual"),
            (["verify-hidden", "--family", "cartan", "--m", "1", "--k", "2"],
             "_ball_points", "delta_k"),
        ],
        ids=["cm-ambient", "cm-sphere", "hidden-rho", "hidden-delta"],
    )
    def test_perturbed_last_sample_fails(self, capsys, monkeypatch, argv, sampler, kernel):
        # The kernel reports a residual of 1 at the last sample the sampler
        # draws and nowhere else; the run must see it.
        last, hits = [], []
        draw, evaluate = getattr(cli, sampler), getattr(cli, kernel)

        def marking(*args, **kwargs):
            pts = draw(*args, **kwargs)
            last.append(pts[-1].copy())
            return pts

        def perturbed(P, x, *rest):
            out = evaluate(P, x, *rest)
            hit = np.all(np.asarray(x) == last[-1], axis=-1)
            hits.append((len(x), int(np.sum(hit)), int(np.argmax(hit))))
            if isinstance(out, tuple):
                return tuple(part + hit for part in out)
            return out + hit

        monkeypatch.setattr(cli, sampler, marking)
        monkeypatch.setattr(cli, kernel, perturbed)
        code, doc = run_json(capsys, argv + ["--samples", str(self.SAMPLES)])
        assert code == 1
        assert doc["pass"] is False
        failed = [row for row in doc["details"]
                  if row["tolerance"] is not None and row["residual"] > row["tolerance"]]
        assert failed
        # the last sample sits at the end of a partial block
        assert (3, 1, 2) in hits
        assert all(count == 0 for size, count, _ in hits if size != 3)

    def test_unperturbed_blocks_pass(self, capsys):
        code, doc = run_json(
            capsys, ["verify-hidden", "--family", "ot", "--r", "1", "--k", "2,3",
                     "--samples", str(self.SAMPLES)]
        )
        assert code == 0
        assert doc["samples"] == self.SAMPLES

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """The shape of every eval_jet, eval_grad and eval_hessian call made
        through any isopar module."""
        calls = {"eval_jet": [], "eval_grad": [], "eval_hessian": []}

        def counted(name, original):
            def kernel(P, x):
                calls[name].append(np.shape(x))
                return original(P, x)
            return kernel

        for name in calls:
            original = getattr(polyfam, name)
            wrapper = counted(name, original)
            for module_name, module in list(sys.modules.items()):
                if module_name.split(".")[0] == "isopar" and getattr(
                    module, name, None
                ) is original:
                    monkeypatch.setattr(module, name, wrapper)
        return calls

    def test_hessian_calls_per_block(self, capsys, kernel_calls):
        calls = kernel_calls
        code, _ = run(capsys, ["verify-cm", "--family", "cartan", "--m", "1",
                               "--samples", "200"])
        assert code == 0
        blocks = -(-200 // spherelevel.SAMPLE_BLOCK)
        # one contraction per block for each half of the suite (cm_residuals
        # on the ball, frame_at on the sphere), every sample in exactly one
        assert len(calls["eval_jet"]) == 2 * blocks
        assert sum(shape[0] for shape in calls["eval_jet"]) == 2 * 200
        assert calls["eval_grad"] == calls["eval_hessian"] == []

    def test_hidden_power_sums_read_one_jet_per_block(self, capsys, kernel_calls):
        calls = kernel_calls
        code, _ = run(capsys, ["verify-hidden", "--family", "ot", "--r", "3",
                               "--k", "2,3,4", "--samples", "200"])
        assert code == 0
        # every k of a block reads the same jet
        assert len(calls["eval_jet"]) == -(-200 // spherelevel.SAMPLE_BLOCK)
        assert sum(shape[0] for shape in calls["eval_jet"]) == 200
        assert calls["eval_grad"] == calls["eval_hessian"] == []

    def test_hidden_cartan_defaults_read_two_hessians_per_block(
        self, capsys, kernel_calls
    ):
        calls = kernel_calls
        code, doc = run_json(capsys, ["verify-hidden", "--family", "cartan",
                                      "--m", "1", "--samples", "200"])
        assert code == 0
        assert len(doc["details"]) == 8  # five minor identities, three power sums
        # one Hessian for sigma_1..sigma_5, one jet for rho_2..rho_4
        hessians = calls["eval_jet"] + calls["eval_hessian"]
        assert len(hessians) <= 2 * -(-200 // spherelevel.SAMPLE_BLOCK)
        assert calls["eval_grad"] == []


@pytest.mark.usefixtures("fresh_members")
class TestMemberCache:
    """Each family member is built once per process."""

    @staticmethod
    def counting(monkeypatch, name):
        built = []
        original = getattr(cli, name)

        def builder(*args):
            built.append(args)
            return original(*args)

        monkeypatch.setattr(cli, name, builder)
        return built

    def test_second_run_builds_nothing(self, capsys, monkeypatch):
        built = self.counting(monkeypatch, "make_cartan")
        argv = ["verify-cm", "--family", "cartan", "--m", "1", "--samples", "10"]
        first = run(capsys, argv)
        assert first[0] == 0
        assert run(capsys, argv) == first
        # --r means nothing to the cubic and does not split its entry
        assert run(capsys, argv + ["--r", "3"]) == first
        assert built == [(1,)]
        code, _ = run(capsys, ["verify-hidden", "--family", "cartan", "--m", "2",
                               "--samples", "5"])
        assert code == 0
        assert built == [(1,), (2,)]

    def test_failed_build_is_not_cached(self, capsys, monkeypatch):
        built = self.counting(monkeypatch, "make_fkm")
        for _ in range(2):
            code, doc = run_json(
                capsys, ["verify-cm", "--family", "fkm", "--m", "2", "--r", "3"]
            )
            assert code == 2
            assert doc["error"]["type"] == "ConstructionError"
        assert built == [(2, 3), (2, 3)]


class TestAlphaScan:
    def test_fkm_witnesses_present(self, capsys):
        code, doc = run_json(
            capsys, ["alpha-scan", "--family", "fkm", "--m", "2", "--r", "4",
                     "--samples", "30", "--J", "block"]
        )
        assert code == 0
        names = [row["name"] for row in doc["details"]]
        assert "reference-point-plus" in names
        assert "reference-point-minus" in names
        assert "alpha" in doc
        assert doc["alpha"][0]["max"] - doc["alpha"][0]["min"] > 3.0

    def test_low_multiplicity_constant_ratio(self, capsys):
        code, doc = run_json(
            capsys, ["alpha-scan", "--family", "fkm", "--m", "1", "--r", "3",
                     "--samples", "30", "--level", "0.0", "--level", "0.4"]
        )
        assert code == 0
        assert len(doc["alpha"]) == 2
        for stats in doc["alpha"]:
            assert stats["std"] < 1e-7
        names = [row["name"] for row in doc["details"]]
        assert "reference-point-plus" not in names  # quaternion points only

    def test_odd_dimension_has_no_circle_action(self, capsys):
        # cartan m = 1 lives in dimension 5; no compatible J exists
        code, doc = run_json(
            capsys, ["alpha-scan", "--family", "cartan", "--m", "1"]
        )
        assert code == 2

    @pytest.mark.usefixtures("fresh_members")
    @pytest.mark.parametrize("J", sorted(cli.J_CHOICES))
    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_cartan_fails_before_the_build(self, capsys, monkeypatch, m, J):
        def no_build(m):
            raise AssertionError("cartan member built for alpha-scan")

        monkeypatch.setattr(cli, "make_cartan", no_build)
        code, doc = run_json(
            capsys, ["alpha-scan", "--family", "cartan", "--m", str(m), "--J", J]
        )
        assert code == 2
        assert doc["error"]["type"] == "ConstructionError"
        assert "no cubic (cartan) pairing" in doc["error"]["message"]

    def test_nan_level_is_library_error(self, capsys):
        code, doc = run_json(
            capsys, ["alpha-scan", "--family", "fkm", "--m", "1", "--r", "3",
                     "--level", "nan"]
        )
        assert code == 2
        assert issubclass(getattr(errors, doc["error"]["type"]), errors.IsoparError)

    def test_csv_side_file(self, capsys, tmp_path):
        prefix = str(tmp_path / "scan")
        code, doc = run_json(
            capsys, ["alpha-scan", "--family", "ot", "--r", "1",
                     "--samples", "10", "--J", "right-i", "--csv", prefix]
        )
        assert code == 0
        lines = (tmp_path / "scan-alpha.csv").read_text().splitlines()
        assert lines[0] == "index,level,alpha,omega,l"
        assert len(lines) == 11

    def test_repeated_levels_do_not_leak_into_the_next_call(self, capsys):
        # The parser is built once per process; the append action must
        # still start every call from an empty list.
        base = ["alpha-scan", "--family", "fkm", "--m", "1", "--r", "3",
                "--samples", "3"]
        code, doc = run_json(capsys, base + ["--level", "0.2", "--level", "0.4"])
        assert code == 0
        assert doc["params"]["levels"] == "0.2,0.4"
        code, doc = run_json(capsys, base)
        assert code == 0
        assert doc["params"]["levels"] == "0"
        assert [stats["level"] for stats in doc["alpha"]] == [0.0]

    def test_mismatched_action_is_usage_error(self, capsys):
        code, doc = run_json(
            capsys, ["alpha-scan", "--family", "fkm", "--m", "2", "--r", "4",
                     "--J", "right-i", "--samples", "10"]
        )
        assert code == 2
        assert doc["error"]["type"] == "InvarianceError"


class TestRiccati:
    def test_space_form_report(self, capsys):
        code, doc = run_json(
            capsys, ["riccati", "--kappa", "1", "--mu0", "0.9,-0.3,0.25"]
        )
        assert code == 0
        assert_report_shape(doc, "riccati")
        names = [row["name"] for row in doc["details"]]
        for expected in (
            "closed-vs-numeric", "power-sum-recurrence",
            "mixed-trace-recurrence", "moment-chain",
        ):
            assert expected in names
        assert doc["moment_scale"] >= 1.0

    def test_rank_one_report(self, capsys):
        code, doc = run_json(
            capsys, ["riccati", "--kappa", "1,4", "--mult", "3",
                     "--mu0", "0.9,-0.3,0.25,1.1,-0.7,0.5,0.05"]
        )
        assert code == 0
        assert doc["pass"] is True

    def test_tied_spectrum_skips_round_trip(self, capsys):
        code, doc = run_json(
            capsys, ["riccati", "--kappa", "1,4", "--mult", "3",
                     "--mu0", "0.5,0.5,0.5,0.5,-0.2,-0.2,-0.2"]
        )
        assert code == 0
        assert any("round-trip skipped" in note for note in doc.get("notes", []))
        names = [row["name"] for row in doc["details"]]
        assert "moment-round-trip" not in names

    def test_pole_inside_window_is_clipped(self, capsys):
        # flat branch blows up at t = 0.5; the checks must stay inside
        code, doc = run_json(
            capsys, ["riccati", "--kappa", "0", "--mu0", "2.0",
                     "--t0", "-0.5", "--t1", "0.5"]
        )
        assert code == 0
        assert doc["pass"] is True

    @pytest.mark.parametrize(
        "argv,joined",
        [
            (["--kappa", "-1,-4", "--mult", "1", "--mu0", "0.4,1.7,0.2"],
             ["--kappa=-1,-4", "--mult", "1", "--mu0", "0.4,1.7,0.2"]),
            (["--kappa", "1", "--mu0", "-0.4,0.2"],
             ["--kappa", "1", "--mu0=-0.4,0.2"]),
            (["--kappa", "1", "--mu0", "0.4", "--t0", "-1e-3"],
             ["--kappa", "1", "--mu0", "0.4", "--t0=-1e-3"]),
        ],
    )
    def test_negative_number_lists_are_values(self, capsys, argv, joined):
        # a comma list or an exponent after a minus sign is the flag's value,
        # giving the report of the joined --flag=value form
        code, out = run(capsys, ["riccati", *argv])
        assert code == 0
        assert (code, out) == run(capsys, ["riccati", *joined])

    def test_flag_like_value_is_still_usage_error(self, capsys):
        code, doc = run_json(capsys, ["riccati", "--kappa", "-x", "--mu0", "0.4"])
        assert code == 2
        assert doc["error"]["message"] == (
            "isopar riccati: argument --kappa: expected one argument"
        )

    def test_too_few_curvatures_for_mult_is_usage_error(self, capsys):
        # n is read off the mu0 list; two entries cannot host a
        # multiplicity-3 block
        code, doc = run_json(
            capsys, ["riccati", "--kappa", "1,4", "--mult", "3",
                     "--mu0", "0.1,0.2"]
        )
        assert code == 2

    def test_two_kappas_need_mult(self, capsys):
        code, doc = run_json(
            capsys, ["riccati", "--kappa", "1,4", "--mu0", "0.1,0.2,0.3"]
        )
        assert code == 2

    def test_one_kappa_takes_no_mult(self, capsys):
        # a space form has no second eigenvalue for --mult to count
        code, doc = run_json(
            capsys, ["riccati", "--kappa", "1", "--mult", "3", "--mu0", "0.3,0.2"]
        )
        assert code == 2
        assert doc["error"]["type"] == "ConstructionError"
        assert "--mult" in doc["error"]["message"]

    def test_equal_kappas_are_construction_error(self, capsys):
        code, doc = run_json(
            capsys, ["riccati", "--kappa", "1,1", "--mult", "1", "--mu0", "0.1,0.2,0.3"]
        )
        assert code == 2
        assert doc["error"]["type"] == "ConstructionError"
        assert "distinct" in doc["error"]["message"]

    def test_nan_in_a_later_gated_row_reaches_max_residual(self, capsys, monkeypatch):
        # mixed-trace-recurrence is the third gated row; the builtin max
        # kept the finite rows before it.
        monkeypatch.setattr(cli, "check_gamma_recurrence", lambda fam, grid: np.nan)
        code, doc = run_json(capsys, ["riccati", "--kappa", "1", "--mu0", "0.4,-0.2"])
        assert code == 1
        assert doc["max_residual"] == "nan"
        row = next(r for r in doc["details"] if r["name"] == "mixed-trace-recurrence")
        assert row["residual"] == "nan"

    @pytest.mark.parametrize(
        "flag,value",
        [("--t0", "nan"), ("--t0", "-inf"), ("--t1", "inf"), ("--t1", "nan"),
         ("--steps", "0"), ("--steps", "-5"), ("--kappa", "nan"),
         ("--kappa", "1,-inf"), ("--mu0", "nan,0.2"), ("--mu0", "0.4,inf")],
    )
    def test_bad_time_grid_is_usage_error(self, capsys, monkeypatch, flag, value):
        def no_build(kappas, mu0):
            raise AssertionError("riccati family built before the grid was checked")

        monkeypatch.setattr(cli, "riccati_family", no_build)
        code, doc = run_json(
            capsys, ["riccati", "--kappa", "1", "--mu0", "0.4,-0.2",
                     f"{flag}={value}"]
        )
        assert code == 2
        assert doc["error"]["type"] == "ConstructionError"
        assert flag in doc["error"]["message"]

    def test_closed_forms_evaluated_per_grid(self, capsys, monkeypatch):
        # The README command: the closed table, one moment table per order,
        # the three checks and one evaluation per round-trip time.
        calls = []
        original = riccati.evolve_closed

        def counted(fam, t):
            calls.append(np.shape(t))
            return original(fam, t)

        monkeypatch.setattr(riccati, "evolve_closed", counted)
        monkeypatch.setattr(cli, "evolve_closed", counted)
        code, _ = run(capsys, ["riccati", "--kappa", "1,4", "--mult", "3", "--mu0",
                               "0.9,-0.3,0.25,1.1,-0.7,0.5,0.05"])
        assert code == 0
        assert len(calls) <= 20

    def test_trajectory_csv(self, capsys, tmp_path):
        prefix = str(tmp_path / "run")
        code, _ = run_json(
            capsys, ["riccati", "--kappa", "1", "--mu0", "0.4,-0.2",
                     "--csv", prefix]
        )
        assert code == 0
        lines = (tmp_path / "run-trajectory.csv").read_text().splitlines()
        assert lines[0].startswith("t,mu1,mu2,Q1")


class TestSpectrum:
    def test_cartan_level_report(self, capsys):
        code, doc = run_json(
            capsys, ["spectrum", "--family", "cartan", "--m", "1",
                     "--samples", "20", "--level", "0.2"]
        )
        assert code == 0
        names = [row["name"] for row in doc["details"]]
        assert "spectrum-match" in names
        assert "orientation-flips" in names
        assert "expected_values" in doc

    def test_recurrence_csv(self, capsys, tmp_path):
        prefix = str(tmp_path / "lvl")
        code, _ = run_json(
            capsys, ["spectrum", "--family", "fkm", "--m", "2", "--r", "4",
                     "--samples", "10", "--csv", prefix]
        )
        assert code == 0
        header = (tmp_path / "lvl-recurrence.csv").read_text().splitlines()[0]
        assert header.startswith("t,Q1")

    def test_nan_deviation_at_a_later_sample_fails(self, capsys, monkeypatch):
        # a NaN deviation in row 3 of the second block reaches the gate
        rows = []
        check = cli.munzner_check

        def poisoned(frame):
            deviation, flipped, expected = check(frame)
            rows.append(len(deviation))
            if len(rows) == 2:
                deviation = deviation.copy()
                deviation[3] = np.nan
            return deviation, flipped, expected

        monkeypatch.setattr(cli, "munzner_check", poisoned)
        block = spherelevel.SAMPLE_BLOCK
        code, doc = run_json(
            capsys, ["spectrum", "--family", "cartan", "--m", "1",
                     "--samples", str(block + 5), "--level", "0.2"]
        )
        assert code == 1
        assert rows == [block, 5]
        assert doc["details"][0]["residual"] == "nan"

    @pytest.mark.parametrize(
        "argv,module",
        [
            (["spectrum", "--family", "cartan", "--m", "1", "--level", "0.2"], cli),
            (["alpha-scan", "--family", "fkm", "--m", "2", "--r", "4",
              "--level", "0.2"], hopf),
        ],
        ids=["spectrum", "alpha-scan"],
    )
    @pytest.mark.parametrize("failure", ["focal", "projection"])
    def test_failing_sample_is_named(self, capsys, monkeypatch, argv, module, failure):
        # sample k = SAMPLE_BLOCK + 3 sits in row 3 of the second block; the
        # error names it by its index among all samples
        k = spherelevel.SAMPLE_BLOCK + 3
        if failure == "focal":
            draw = module.regular_sphere_points

            def with_focal_point(P, *args, **kwargs):
                pts = draw(P, *args, **kwargs)
                # cartan: F(e_0) = 1; fkm: an eigenvector of A_0 has F = -1
                z = np.eye(P.ambient_dim)[0]
                if P.system is not None:
                    z = z + P.system.generators[0][:, 0]
                pts[k] = z / np.linalg.norm(z)
                return pts

            monkeypatch.setattr(module, "regular_sphere_points", with_focal_point)
            error = "FocalPointError"
        else:
            arc, calls = spherelevel.landing_arc, []

            def missing_row_3(*args):
                calls.append(None)
                value = arc(*args)
                if len(calls) == 2:
                    value = np.where(np.arange(len(value)) == 3, np.nan, value)
                return value

            monkeypatch.setattr(spherelevel, "landing_arc", missing_row_3)
            error = "ProjectionError"
        code, doc = run_json(capsys, argv + ["--samples", "40"])
        assert code == 2
        assert doc["pass"] is False
        assert doc["error"]["type"] == error
        assert doc["error"]["message"].endswith(f"(sample {k})")

    def test_focal_level_is_usage_error(self, capsys):
        code, doc = run_json(
            capsys, ["spectrum", "--family", "cartan", "--m", "1",
                     "--level", "0.9999"]
        )
        assert code == 2


RECURRENCE_FAMILIES = [
    ["--family", "cartan", "--m", "1"],
    ["--family", "cartan", "--m", "2"],
    ["--family", "cartan", "--m", "4"],
    ["--family", "cartan", "--m", "8"],
    ["--family", "fkm", "--m", "1", "--r", "3"],
    ["--family", "fkm", "--m", "1", "--r", "4"],
    ["--family", "fkm", "--m", "2", "--r", "4"],
    ["--family", "fkm", "--m", "2", "--r", "8"],
    ["--family", "fkm", "--m", "3", "--r", "8"],
    ["--family", "fkm", "--m", "1", "--r", "64"],
    ["--family", "ot", "--r", "1"],
    ["--family", "ot", "--r", "2"],
    ["--family", "ot", "--r", "3"],
]


class TestRecurrences:
    @pytest.mark.parametrize("family", RECURRENCE_FAMILIES, ids=shlex.join)
    def test_family_passes(self, capsys, family):
        code, doc = run_json(capsys, ["recurrences", *family])
        assert code == 0
        assert_report_shape(doc, "recurrences")
        assert doc["samples"] == 33
        assert [row["name"] for row in doc["details"]] == [
            "qk-recurrence", "rhobar-recurrence", "rhobar-path-agreement",
            "rhobar-seed-zero", "rhobar-seed-one",
        ]
        assert all(row["tolerance"] == 1e-12 for row in doc["details"])

    @pytest.mark.parametrize(
        "family,m,r", [("cartan", 2, None), ("fkm", 1, 64), ("ot", None, 2)]
    )
    def test_rows_equal_library_calls(self, capsys, family, m, r):
        argv = ["recurrences", "--family", family, "--samples", "9", "--seed", "7"]
        argv += ["--m", str(m)] if m is not None else []
        argv += ["--r", str(r)] if r is not None else []
        code, doc = run_json(capsys, argv)
        assert code == 0
        fam = cli._member(family, m, r)
        g, m1, m2 = fam.g, fam.m1, fam.m2
        grid = np.linspace(-0.8, 0.8, 9)
        rhobar = spherelevel.rhobar_recurrence_check(fam, grid, 7)
        scale = float(np.max(np.abs(spherelevel.level_power_sums(g, m1, m2, grid, 6)[1])))
        expected = [
            spherelevel.qk_recurrence_check(g, m1, m2, grid),
            rhobar["recurrence"],
            rhobar["path-agreement"] / scale,
            rhobar["seed-zero"],
            rhobar["seed-one"] / max(1.0, abs(0.5 * g * g * (m2 - m1))),
        ]
        assert [row["residual"] for row in doc["details"]] == expected
        assert doc["rhobar_scale"] == scale

    def test_nan_power_sum_fails(self, capsys, monkeypatch):
        table = spherelevel.level_power_sums

        def nan_q(g, m1, m2, t, k_max):
            q, rhobar = table(g, m1, m2, t, k_max)
            return np.full_like(q, np.nan), rhobar

        monkeypatch.setattr(spherelevel, "level_power_sums", nan_q)
        code, doc = run_json(
            capsys, ["recurrences", "--family", "cartan", "--m", "1"]
        )
        assert code == 1
        assert doc["pass"] is False
        assert doc["details"][0]["residual"] == "nan"

    def test_identical_runs_are_byte_identical(self, capsys):
        argv = ["recurrences", "--family", "ot", "--r", "1", "--seed", "7"]
        _, first = run(capsys, argv)
        _, second = run(capsys, argv)
        assert first == second


class TestReportContract:
    def test_identical_runs_are_byte_identical(self, capsys):
        argv = ["verify-cm", "--family", "cartan", "--m", "2",
                "--samples", "25", "--seed", "7"]
        _, first = run(capsys, argv)
        _, second = run(capsys, argv)
        assert first == second

    def test_seed_changes_report(self, capsys):
        argv = ["verify-cm", "--family", "cartan", "--m", "1", "--samples", "25"]
        _, base = run(capsys, argv)
        _, other = run(capsys, argv + ["--seed", "99"])
        assert base != other

    def test_env_seed_overrides_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("ISOPAR_SEED", "31415")
        code, doc = run_json(
            capsys, ["verify-cm", "--family", "cartan", "--m", "1",
                     "--samples", "10", "--seed", "5"]
        )
        assert code == 0
        assert doc["seed"] == 31415

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-cm", "--family", "fkm", "--m", "1", "--r", "3"],
            ["verify-hidden", "--family", "fkm", "--m", "1", "--r", "3"],
            ["alpha-scan", "--family", "fkm", "--m", "1", "--r", "3"],
            ["spectrum", "--family", "fkm", "--m", "1", "--r", "3"],
            ["recurrences", "--family", "fkm", "--m", "1", "--r", "3"],
            ["riccati", "--kappa", "1", "--mu0", "0.4,-0.2"],
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize(
        "source,env,flag",
        [("--seed", None, "-5"), ("ISOPAR_SEED", "-3", "5"),
         ("ISOPAR_SEED", "x7", "5"), ("ISOPAR_SEED", "", "5")],
        ids=["negative-flag", "negative-env", "word-env", "empty-env"],
    )
    @pytest.mark.usefixtures("fresh_members")
    def test_bad_seed_is_usage_error(self, capsys, monkeypatch, argv, source, env, flag):
        def no_build(*args):
            raise AssertionError("family built before the seed was checked")

        monkeypatch.setattr(cli, "make_fkm", no_build)
        monkeypatch.setattr(cli, "riccati_family", no_build)
        if env is not None:
            monkeypatch.setenv("ISOPAR_SEED", env)
        code, doc = run_json(capsys, argv + [f"--seed={flag}"])
        assert code == 2
        assert doc["error"]["type"] == "ConstructionError"
        assert doc["error"]["message"].startswith(f"{source} must be a non-negative")

    def test_out_file_replaces_stdout(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out = run(
            capsys, ["verify-cm", "--family", "cartan", "--m", "1",
                     "--samples", "10", "--out", str(target)]
        )
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["pass"] is True

    def test_error_report_respects_out_file(self, capsys, tmp_path):
        target = tmp_path / "err.json"
        code, out = run(
            capsys, ["verify-hidden", "--family", "cartan", "--m", "1",
                     "--k", "9", "--out", str(target)]
        )
        assert code == 2
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["error"]["type"] == "ConstructionError"

    @pytest.mark.parametrize(
        "command",
        ["verify-cm", "verify-hidden", "alpha-scan", "spectrum", "recurrences"],
    )
    def test_zero_samples_is_usage_error(self, capsys, command):
        # Zero samples would gate nothing and pass vacuously.
        code, doc = run_json(
            capsys, [command, "--family", "fkm", "--m", "1", "--r", "3",
                     "--samples", "0"]
        )
        assert code == 2
        assert doc["pass"] is False
        assert doc["error"]["type"] == "ConstructionError"
        assert "--samples" in doc["error"]["message"]

    def test_unwritable_csv_is_json_error(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        code, doc = run_json(
            capsys, ["spectrum", "--family", "cartan", "--m", "1", "--samples", "3",
                     "--csv", "missing-dir/p"]
        )
        assert code == 2
        assert doc["command"] == "spectrum"
        assert doc["error"]["type"] == "FileNotFoundError"
        assert "missing-dir/p-recurrence.csv" in doc["error"]["message"]

    def test_unwritable_out_reports_on_stdout(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        code, doc = run_json(
            capsys, ["spectrum", "--family", "cartan", "--m", "1", "--samples", "3",
                     "--out", "missing-dir/x.json"]
        )
        assert code == 2
        assert doc["command"] == "spectrum"
        assert doc["error"]["type"] == "FileNotFoundError"
        assert "missing-dir/x.json" in doc["error"]["message"]

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["riccati", "--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: isopar riccati")

    def test_library_error_is_json_not_traceback(self, capsys, monkeypatch):
        # Every sample now sits on a focal level, so the sampler gives up.
        monkeypatch.setattr(
            spherelevel, "eval_F", lambda P, x: np.ones(np.shape(x)[:-1])
        )
        code = cli.main(["verify-cm", "--family", "cartan", "--m", "1",
                         "--samples", "3"])
        captured = capsys.readouterr()
        assert code == 2
        doc = json.loads(captured.out)
        assert doc["pass"] is False
        assert doc["error"]["type"] == "FocalPointError"
        assert "Traceback" not in captured.out + captured.err

    def test_closed_stdout_exits_two_without_traceback(self):
        # stdout is a pipe whose reader is gone before the report is written
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "isopar.cli", "alpha-scan", "--family", "ot",
                 "--r", "1", "--J", "right-i", "--samples", "2"],
                env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr == b""

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_params_are_sorted(self, capsys):
        _, doc = run_json(
            capsys, ["verify-cm", "--family", "fkm", "--m", "2", "--r", "4",
                     "--samples", "10"]
        )
        keys = list(doc["params"])
        assert keys == sorted(keys)


@pytest.fixture(scope="module")
def cold_cli_packages():
    """Top-level packages loaded by `import isopar.cli` in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    probe = (
        "import sys, isopar.cli; "
        "print(' '.join(sorted({m.split('.')[0] for m in sys.modules})))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, check=True,
    ).stdout
    return set(out.split())


def test_cli_import_loads_no_scipy(cold_cli_packages):
    # numpy is the only numerical dependency; importing scipy would add
    # about half a second to every command.
    assert "scipy" not in cold_cli_packages


def test_cli_import_loads_no_test_dependency(cold_cli_packages):
    # sympy, mpmath and hypothesis serve the tests only; none may reach the
    # start-up of a command.
    optional = {"sympy", "mpmath", "scipy", "hypothesis"}
    assert not optional & cold_cli_packages


def readme_commands():
    """The fenced command block under "Command line" in README.md."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## Command line\n", 1)[1].split("```\n", 2)[1]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()]


@pytest.mark.parametrize("argv", readme_commands(), ids=shlex.join)
def test_readme_command_runs(capsys, monkeypatch, tmp_path, argv):
    # Keeps the README examples in step with the parser and the suites.
    monkeypatch.chdir(tmp_path)
    code, doc = run_json(capsys, argv)
    assert code == 0
    assert doc["pass"] is True
    if "--csv" in argv:
        prefix = argv[argv.index("--csv") + 1]
        written = [path.name for path in tmp_path.glob(f"{prefix}-*.csv")]
        assert len(written) == 1
        assert doc["notes"][-1] == f"wrote {written[0]}"
