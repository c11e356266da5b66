import hashlib
import os
import re

import numpy as np
import pytest

from conftest import one_coordinate_solution
from n1ma import solver
from n1ma.cli import main
from n1ma.config import parse_config
from n1ma.grid import grid_coordinates, read_field, write_field
from n1ma.harness import family_run

FLAT = """
[problem]
n = 3
grid = 16
[solver]
tol = 1e-10
"""

FAMILY = """
[problem]
grid = 16
[family]
t_values = 0, 0.25, 0.5
[beta1]
e11 = 1.4 + 0.1*cos(x1)
e22 = 0.9
[density1]
expression = exp(0.2*cos(x2))
[bounds]
c_beta_omega = 3
budget = 10
"""


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def digest(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


class TestSolve:
    def test_flat(self, tmp_path):
        cfg = write(tmp_path, FLAT)
        out = str(tmp_path / "out")
        assert main(["solve", "-c", cfg, "-o", out]) == 0
        lines = open(os.path.join(out, "solve.csv")).read().splitlines()
        header = lines[0].split(",")
        values = dict(zip(header, lines[1].split(",")))
        assert values["c"] == "1.0"
        assert values["osc"] == "0.0"
        assert values["converged"] == "True"
        u = read_field(os.path.join(out, "u.n1ma"))
        assert u.shape == (16, 16, 16)
        assert np.abs(u).max() == 0.0
        assert os.path.exists(os.path.join(out, "residuals.csv"))
        assert os.path.exists(os.path.join(out, "u.csv"))

    # sha256 of the manufactured solve's reports, which pin the solver's bits
    GOLDEN = {
        "solve.csv": "1c0450b2e7e524374e76f8eaa558ec8fc7a947e8b0fb7e01afcd96c3120bc7fc",
        "residuals.csv": "a751a40ae399ec029bcacbc80b598e5f22dfdce6eea971c5b879f613eff0f931",
    }

    def test_manufactured_golden_digest(self, tmp_path):
        out = str(tmp_path / "m")
        assert main(["solve", "-c", "manufactured", "-o", out]) == 0
        assert {name: digest(os.path.join(out, name)) for name in self.GOLDEN} == self.GOLDEN

    def test_nonconvergence_exit_code(self, tmp_path):
        cfg = write(tmp_path, """
[problem]
grid = 16
[solver]
max_iter = 1
[density]
expression = exp(0.8*cos(x1)*cos(x3))
""")
        assert main(["solve", "-c", cfg, "-o", str(tmp_path / "o")]) == 3

    def test_bad_config_exit_code(self, tmp_path):
        cfg = write(tmp_path, "[problem]\ngrid = 16\n[density]\nexpression = cos(x1)\n")
        assert main(["solve", "-c", cfg, "-o", str(tmp_path / "o")]) == 5

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["solve", "-c", str(tmp_path / "nope.ini"), "-o", str(tmp_path)]) == 5

    def test_family_config_rejected(self, tmp_path):
        cfg = write(tmp_path, FAMILY)
        assert main(["solve", "-c", cfg, "-o", str(tmp_path / "o")]) == 5

    def test_nan_density_exit_code(self, tmp_path):
        # log of a negative cosine is NaN: rejected at the config boundary
        cfg = write(tmp_path, "[problem]\nn = 3\ngrid = 16\n[density]\nexpression = exp(log(cos(x1)))\n")
        with np.errstate(invalid="ignore"):
            assert main(["solve", "-c", cfg, "-o", str(tmp_path / "o")]) == 5

    def test_subnormal_density_is_a_failure(self, tmp_path):
        # c = 1 / f overflows: a constant outside the floats is no solution
        cfg = write(tmp_path, "[problem]\nn = 3\ngrid = 8\n[density]\nexpression = 1e-320\n")
        out = tmp_path / "o"
        assert main(["solve", "-c", cfg, "-o", str(out)]) == 3
        assert (out / "solve.csv").read_text().splitlines()[1].endswith(",False")
        assert solver.newton_solve(parse_config(cfg)).failure == "constant-range"

    def test_cone_exit_writes_the_failure(self, tmp_path, capsys):
        # the solution of exp(16 cos x1) lies below the positivity floor
        cfg = write(tmp_path, "[problem]\nn = 3\ngrid = 16\n[density]\nexpression = exp(16*cos(x1))\n")
        out = tmp_path / "o"
        assert main(["solve", "-c", cfg, "-o", str(out)]) == 2
        assert capsys.readouterr().err == "solve: solver did not converge (cone-exit)\n"
        header, row = (out / "solve.csv").read_text().splitlines()
        assert row.endswith(",False")
        iterations = int(dict(zip(header.split(","), row.split(",")))["iterations"])
        assert iterations >= 1
        residuals = (out / "residuals.csv").read_text().splitlines()
        assert len(residuals) == 1 + iterations + 1
        assert read_field(out / "u.n1ma").max() == 0.0 and (out / "u.csv").exists()

    @pytest.mark.parametrize(
        "expression",
        ["+".join(["1"] * 2000), "(" * 1200 + "1" + ")" * 1200, "-" * 1200 + "1"],
        ids=["long-sum", "nested-parentheses", "unary-minuses"],
    )
    def test_deep_expression_exit_code(self, tmp_path, capsys, expression):
        cfg = write(tmp_path, f"[problem]\nn = 3\ngrid = 8\n[density]\nexpression = {expression}\n")
        assert main(["solve", "-c", cfg, "-o", str(tmp_path / "o")]) == 5
        assert "nested too deeply" in capsys.readouterr().err

    @pytest.mark.parametrize("delta", ["1e-1", "1e-2", "1e-3", "1e-4"])
    def test_near_singular_density_matches_the_oracle(self, tmp_path, delta):
        # a miniature of the singular setting: as delta -> 0, f tends to
        # |sin(x1/2)|^-0.8, singular at x1 = 0, whose square root stays
        # integrable
        density = f"(sin(x1/2)^2 + {delta})^(-0.4)"
        cfg = write(tmp_path, f"[problem]\nn = 3\ngrid = 32\n[density]\nexpression = {density}\n")
        out = tmp_path / "o"
        assert main(["solve", "-c", cfg, "-o", str(out)]) == 0
        x1, _, _ = grid_coordinates((32, 32, 32))
        u, c, _ = one_coordinate_solution((np.sin(x1 / 2) ** 2 + float(delta)) ** -0.4, 3)
        header, row = (out / "solve.csv").read_text().splitlines()
        assert float(dict(zip(header.split(","), row.split(",")))["c"]) == pytest.approx(c, rel=1e-10, abs=0.0)
        assert np.abs(read_field(out / "u.n1ma") - u).max() <= 1e-9

    def test_levels_printed(self, tmp_path, capsys):
        cfg = write(tmp_path, "[problem]\nn = 3\ngrid = 32,32,24\n[density]\nexpression = exp(0.2*cos(x1))\n")
        assert main(["solve", "-c", cfg, "-o", str(tmp_path / "o")]) == 0
        levels = [line for line in capsys.readouterr().out.splitlines() if line.startswith("level ")]
        assert levels[0].startswith("level 16x16x12: ") and levels[-1] == "level 32x32x24: 0 Newton steps"
        # residuals.csv keeps its columns
        assert (tmp_path / "o" / "residuals.csv").read_text().startswith("iteration,sup_residual\n")

    def test_bad_density_file_sizes_exit_code(self, tmp_path):
        good = tmp_path / "good.n1ma"
        write_field(good, np.ones((16, 16, 16)))
        raw = good.read_bytes()
        for name, payload in (("truncated", raw[:1000]), ("trailing", raw + b"\x00" * 8)):
            field = tmp_path / f"{name}.n1ma"
            field.write_bytes(payload)
            cfg = write(tmp_path, f"[problem]\nn = 3\ngrid = 16\n[density]\nfile = {field}\n", f"{name}.ini")
            assert main(["solve", "-c", cfg, "-o", str(tmp_path / name)]) == 5, name

    @pytest.mark.parametrize(
        "line",
        ["tol = nan", "tol = inf", "tol = -1e-10", "max_iter = -3", "max_iter = 0"],
    )
    def test_bad_solver_options_exit_code(self, tmp_path, line):
        cfg = write(tmp_path, f"[problem]\nn = 3\ngrid = 8\n[solver]\n{line}\n")
        out = tmp_path / "o"
        assert main(["solve", "-c", cfg, "-o", str(out)]) == 5
        assert not (out / "solve.csv").exists()


class TestVerify:
    def test_manufactured_bundle(self, tmp_path):
        out = str(tmp_path / "v")
        code = main([
            "verify", "-c", "manufactured", "-o", out,
            "--seed", "3", "--samples", "2000", "--trials", "10",
        ])
        assert code == 0
        text = open(os.path.join(out, "verify.csv")).read()
        assert text.startswith("# generator=PCG64 seed=3\n")
        assert "density_scaling_c" in text

    def test_density_past_half_the_float_range(self, tmp_path, capsys):
        # 2 f overflows, so the density-scaling audit halves f instead
        cfg = write(tmp_path, "[problem]\nn = 3\ngrid = 8\n[density]\nexpression = 1.5e308\n")
        out = str(tmp_path / "v")
        assert main(["verify", "-c", cfg, "-o", out, "--samples", "100", "--trials", "2"]) == 0
        assert capsys.readouterr().err == ""

    def test_deterministic_outputs(self, tmp_path):
        cfg = write(tmp_path, FLAT)
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert main([
                "verify", "-c", cfg, "-o", out,
                "--seed", "11", "--samples", "1000", "--trials", "5",
            ]) == 0
            outs.append(digest(os.path.join(out, "verify.csv")))
        assert outs[0] == outs[1]

    # sha256 of the fixed-seed reports as the full-batch AM-GM minimum and the
    # per-vector frame normalization wrote them
    GOLDEN = {
        ("cones", "--samples", "2000", "--seed", "0"):
            "e1e8bc7c5755207696c8e9607b76d911055e8c0e3bb0e377d29daeb3a8e054e1",
        ("cones", "--samples", "2000", "--seed", "5"):
            "c687cfbac1a0907d3c9a9563e4701b008943f080e885e3b448e5208e73973b91",
        ("forms-check", "--n", "3", "--trials", "8", "--seed", "5"):
            "affe3759fbd582725741224995dd405f9e2fe7fa64e2b4b183dadcf1b453efba",
        ("forms-check", "--n", "4", "--trials", "8", "--seed", "5"):
            "1565d33d81593d351afca90c93d349d53aa7393d9df1f81e5e69f920e0bf033a",
    }

    @pytest.mark.parametrize("argv", sorted(GOLDEN), ids=" ".join)
    def test_golden_digest(self, tmp_path, argv):
        out = str(tmp_path / "g")
        assert main([*argv, "-o", out]) == 0
        name = "cones.csv" if argv[0] == "cones" else "forms.csv"
        assert digest(os.path.join(out, name)) == self.GOLDEN[argv]

    def test_deterministic_cones(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert main(["cones", "--samples", "2000", "--seed", "4", "-o", out]) == 0
            outs.append(digest(os.path.join(out, "cones.csv")))
        assert outs[0] == outs[1]


class TestFamily:
    def test_family_run(self, tmp_path, capsys):
        cfg = write(tmp_path, FAMILY)
        out = str(tmp_path / "f")
        assert main(["family", "-c", cfg, "-o", out]) == 0
        lines = open(os.path.join(out, "family.csv")).read().splitlines()
        assert lines[0] == "t,c,c_upper,mass,min_gap,c2_ratio,grad_sup,osc,converged"
        assert len(lines) == 4
        assert all(line.endswith("True") for line in lines[1:])
        printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("fiber ")]
        assert printed[0] == "fiber t=0.0: cold start, 0 Newton steps"
        assert re.fullmatch(r"fiber t=0\.25: previous start, [1-9]\d* Newton steps", printed[1])
        assert re.fullmatch(r"fiber t=0\.5: secant start, [1-9]\d* Newton steps", printed[2])
        assert len(printed) == 3

    def test_problem_config_rejected(self, tmp_path):
        cfg = write(tmp_path, FLAT)
        assert main(["family", "-c", cfg, "-o", str(tmp_path / "f")]) == 5


class TestRadial:
    def test_divergent_exponent(self, tmp_path):
        out = str(tmp_path / "r")
        assert main(["radial", "--n", "3", "--p", "3", "-o", out]) == 0
        lines = open(os.path.join(out, "threshold.csv")).read().splitlines()
        assert lines[0] == "p,level,partial_integral,verdict"
        assert all(line.endswith("divergent") for line in lines[1:])
        radial_lines = open(os.path.join(out, "radial.csv")).read().splitlines()
        assert radial_lines[0] == "r,lambda_hat_1,lambda_hat_j,ma_hat"
        assert len(radial_lines) == 26

    def test_convergent_exponent(self, tmp_path):
        out = str(tmp_path / "r")
        assert main(["radial", "--n", "3", "--p", "2", "-o", out]) == 0
        lines = open(os.path.join(out, "threshold.csv")).read().splitlines()
        assert all(line.endswith("convergent") for line in lines[1:])

    @pytest.mark.parametrize("p", ["1000", "1e308"])
    def test_overflowing_integral_is_divergent(self, tmp_path, capsys, p):
        # far above the threshold every window overflows to inf
        out = str(tmp_path / "r")
        assert main(["radial", "--p", p, "-o", out]) == 0
        assert capsys.readouterr().out.strip().endswith("verdict=divergent")
        lines = open(os.path.join(out, "threshold.csv")).read().splitlines()
        assert all(line.endswith(",inf,divergent") for line in lines[1:])


class TestRandomSuites:
    def test_cones(self, tmp_path):
        out = str(tmp_path / "c")
        assert main(["cones", "--samples", "5000", "--seed", "1", "-o", out]) == 0
        text = open(os.path.join(out, "cones.csv")).read()
        assert "quasi_cone_inclusion" in text

    def test_forms_check(self, tmp_path):
        out = str(tmp_path / "fc")
        assert main(["forms-check", "--n", "3", "--trials", "25", "--seed", "2", "-o", out]) == 0

    def test_forms_check_n4(self, tmp_path):
        out = str(tmp_path / "fc4")
        assert main(["forms-check", "--n", "4", "--trials", "8", "--seed", "5", "-o", out]) == 0

    # forms.csv as the frame-by-frame wedge-chain evaluation wrote it
    FORMS_CSV = {
        ("4", "7"): "# generator=PCG64 seed=7\n"
        "check,value,threshold,pass\n"
        "hat_identity_max_residual,4.440892098500626e-16,1e-12,True\n"
        "double_star_sign_max_err,0.0,1e-12,True\n"
        "equivalence_disagreements,0,0,True\n",
        ("3", "1"): "# generator=PCG64 seed=1\n"
        "check,value,threshold,pass\n"
        "hat_identity_max_residual,4.440892098500626e-16,1e-12,True\n"
        "double_star_sign_max_err,0.0,1e-12,True\n"
        "equivalence_disagreements,0,0,True\n",
    }

    @pytest.mark.parametrize("n, seed", sorted(FORMS_CSV))
    def test_forms_check_pinned_text(self, tmp_path, n, seed):
        out = str(tmp_path / "fc")
        assert main(["forms-check", "--n", n, "--seed", seed, "-o", out]) == 0
        with open(os.path.join(out, "forms.csv"), "rb") as fh:
            assert fh.read() == self.FORMS_CSV[n, seed].encode()


class TestArguments:
    """Malformed and out-of-range arguments exit 5, the bad-config code,
    before any output is written."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["cones", "--samples", "0"],
            ["cones", "--samples", "-5"],
            ["cones", "--seed", "-1"],
            ["verify", "-c", "manufactured", "--samples", "0"],
            ["radial", "--n", "2"],
            ["forms-check", "--trials", "0"],
            ["forms-check", "--trials", "-1"],
            ["radial", "--p", "-1"],
            ["radial", "--p", "nan"],
            ["radial", "--p", "inf"],
        ],
    )
    def test_out_of_range_exit_code(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert main(argv + ["-o", str(out)]) == 5
        assert not out.exists()
        assert f"{argv[-2]} must be at least" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["cones", "--samples", "abc"], ["bogus"], ["solve"]])
    def test_usage_error_exit_code(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 5

    def test_smallest_counts_accepted(self, tmp_path):
        assert main(["cones", "--samples", "1", "-o", str(tmp_path / "c")]) == 0
        assert main(["forms-check", "--trials", "1", "-o", str(tmp_path / "f")]) == 0


class TestKrylovFailure:
    """An unusable Krylov correction ends the solve as a failure result."""

    OSCILLATING = "[problem]\nn = 3\ngrid = 16\n[density]\nexpression = exp(0.3*cos(x1))\n"

    @pytest.fixture(autouse=True)
    def zero_gmres(self, monkeypatch):
        # a zero correction has true relative residual 1
        monkeypatch.setattr(solver, "gmres", lambda op, rhs, **kwargs: (np.zeros_like(rhs), 0))

    def test_newton_solve_returns_failure(self, tmp_path):
        problem = parse_config(write(tmp_path, self.OSCILLATING))
        result = solver.newton_solve(problem)
        assert not result.converged
        assert result.failure == "krylov"
        assert result.iterations == 0 and len(result.residual_history) == 1
        assert np.isfinite(result.hess_sup) and np.isfinite(result.min_alpha_eig)

    def test_solve_and_verify_exit_3(self, tmp_path):
        cfg = write(tmp_path, self.OSCILLATING)
        out = str(tmp_path / "s")
        assert main(["solve", "-c", cfg, "-o", out]) == 3
        assert open(os.path.join(out, "solve.csv")).read().splitlines()[1].endswith(",False")
        assert main(["verify", "-c", cfg, "-o", str(tmp_path / "v"), "--samples", "100", "--trials", "1"]) == 3

    def test_family_records_failure(self, tmp_path):
        cfg = write(tmp_path, FAMILY)
        # the t = 0 fiber is solved by u = 0 without a correction
        report = family_run(parse_config(cfg))
        assert [(row.converged, row.failure) for row in report.rows] == [
            (True, None), (False, "krylov"), (False, "krylov"),
        ]
        out = str(tmp_path / "f")
        assert main(["family", "-c", cfg, "-o", out]) == 3
        lines = open(os.path.join(out, "family.csv")).read().splitlines()
        assert [line.split(",")[-1] for line in lines[1:]] == ["True", "False", "False"]
