import numpy as np
import pytest

from eqarea.cli import main, parse_ladder


def read(path):
    return path.read_bytes()


def test_solve_writes_profile_and_shocks(tmp_path):
    out = tmp_path / "run"
    code = main(["solve", "--flux", "polynomial:[0,0,4,-4,1]", "--riemann", "0,2,0",
                 "--time", "1", "--nodes", "80", "--out", str(out)])
    assert code == 0
    prof = (out / "profile.csv").read_text().splitlines()
    assert prof[0] == "x,u"
    assert len(prof) == 2002
    shocks = (out / "shocks.csv").read_text().splitlines()
    assert shocks[0] == "x_s,u_top,u_bot,speed"
    assert len(shocks) == 3
    speeds = sorted(float(line.split(",")[3]) for line in shocks[1:])
    assert speeds == pytest.approx([-32.0 / 27.0, 32.0 / 27.0], abs=1e-9)


def test_exact_flag(tmp_path):
    out = tmp_path / "exact"
    assert main(["solve", "--flux", "polynomial:[0,0,4,-4,1]", "--riemann", "0,2,0",
                 "--exact", "--out", str(out)]) == 0
    rows = (out / "shocks.csv").read_text().splitlines()[1:]
    assert len(rows) == 2


def test_envelope_command(tmp_path):
    out = tmp_path / "env"
    code = main(["envelope", "--flux", "polynomial:[0,0,3,-1.6666666666666667,0.25]",
                 "--states", "0,3.5", "--out", str(out), "--oracle-n", "20000"])
    assert code == 0
    built = (out / "envelope.csv").read_text().splitlines()
    oracle = (out / "envelope_oracle.csv").read_text().splitlines()
    assert built[0] == oracle[0] == "kind,u_a,u_b,slope"
    assert [r.split(",")[0] for r in built[1:]] == ["arc", "secant", "arc"]
    assert [r.split(",")[0] for r in oracle[1:]] == ["arc", "secant", "arc"]
    # arc rows leave the slope column empty
    assert built[1].endswith(",")


def test_envelope_tangent_point_next_to_inflection(tmp_path):
    out = tmp_path / "env"
    flux = "--flux=polynomial:[0,0,4,-4,1]"
    assert main(["envelope", flux, "--states=2.3358,0.42251", f"--out={out}"]) == 0
    for name in ("envelope.csv", "envelope_oracle.csv"):
        rows = (out / name).read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["secant", "arc", "secant"]
    assert main(["solve", flux, "--riemann=0,2.3358,0.42251", "--exact", f"--out={out}"]) == 0
    assert len((out / "shocks.csv").read_text().splitlines()) == 3


def test_envelope_linear_flux_single_secant(tmp_path):
    out = tmp_path / "lin"
    assert main(["envelope", "--flux", "polynomial:[1,3]", "--states=-0.2,0.7",
                 "--out", str(out), "--oracle-n", "64"]) == 0
    rows = (out / "envelope.csv").read_text().splitlines()[1:]
    assert len(rows) == 1 and rows[0].startswith("secant")


def test_example2_shock_exact(tmp_path):
    out = tmp_path / "ex2"
    assert main(["example", "--id", "2", "--time", "1.0", "--nodes", "40",
                 "--out", str(out)]) == 0
    row = (out / "shocks.csv").read_text().splitlines()[1]
    x_s = float(row.split(",")[0])
    assert abs(x_s) <= 1e-12
    assert not (out / "convergence.csv").exists()


def test_example1_emits_convergence(tmp_path):
    out = tmp_path / "ex1"
    assert main(["example", "--id", "1", "--nodes", "40", "--out", str(out)]) == 0
    conv = (out / "convergence.csv").read_text().splitlines()
    assert conv[0] == "n,err,order"
    assert len(conv) == 7
    assert [int(r.split(",")[0]) for r in conv[1:]] == [10, 20, 40, 80, 160, 320]


def test_example5_envelope_has_both_hulls(tmp_path):
    out = tmp_path / "ex5"
    assert main(["example", "--id", "5", "--nodes", "80", "--out", str(out)]) == 0
    rows = (out / "envelope.csv").read_text().splitlines()[1:]
    kinds = [r.split(",")[0] for r in rows]
    # lower hull of [0,5] is arc/secant/arc, upper hull the single secant
    assert kinds == ["arc", "secant", "arc", "secant"]
    shock_rows = (out / "shocks.csv").read_text().splitlines()[1:]
    assert len(shock_rows) == 2


def test_converge_example2_orders_empty(tmp_path):
    out = tmp_path / "c2"
    assert main(["converge", "--example", "2", "--out", str(out)]) == 0
    rows = (out / "convergence.csv").read_text().splitlines()[1:]
    for row in rows:
        n, err, order = row.split(",")
        assert float(err) <= 1e-12
        assert order == ""


def test_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["solve", "--flux", "named:buckley-leverett{M:0.5}", "--riemann", "0,1,0",
            "--nodes", "60", "--samples", "301"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("profile.csv", "shocks.csv"):
        assert read(out1 / name) == read(out2 / name)


def test_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("flux: polynomial:[0,0,4,-4,1]\nriemann: 0,2,0\n")
    out = tmp_path / "cfg_run"
    assert main(["solve", "--config", str(cfg), "--nodes", "40", "--out", str(out)]) == 0
    assert (out / "shocks.csv").exists()


def test_exit_code_config_error(tmp_path):
    assert main(["solve", "--flux", "wat", "--riemann", "0,1,0",
                 "--out", str(tmp_path / "x")]) == 1
    assert main(["solve", "--flux", "polynomial:[0,0,1]",
                 "--riemann", "zero,1,0", "--out", str(tmp_path / "y")]) == 1
    assert main(["example", "--id", "9", "--out", str(tmp_path / "z")]) == 1


def test_exit_code_numerical_failure(tmp_path):
    # coincident states reach the solver and are rejected there
    assert main(["solve", "--flux", "polynomial:[0,0,1]", "--riemann", "0,1,1",
                 "--out", str(tmp_path / "n")]) == 2


def test_parse_ladder():
    assert parse_ladder("10x2^5") == [10, 20, 40, 80, 160, 320]
    assert parse_ladder("8x3^2") == [8, 24, 72]
    with pytest.raises(Exception):
        parse_ladder("nope")


def test_ladder_strictly_increasing():
    ladder = parse_ladder("10x2^5")
    assert np.all(np.diff(ladder) > 0)


def test_converge_order_empty_around_wrong_wave_count(monkeypatch):
    # a rung with an extra shock has err = inf; neither it nor the next
    # rung may print an order computed from that infinity
    import eqarea.cli as cli

    solve = cli.solve_riemann_numerical

    def extra_shock_at_21(flux, u_L, u_R, x0, t, n, **kw):
        prof = solve(flux, u_L, u_R, x0, t, n, **kw)
        if n == 21:
            prof.shocks.append(prof.shocks[0])
        return prof

    monkeypatch.setattr(cli, "solve_riemann_numerical", extra_shock_at_21)
    rows = cli.converge(1, parse_ladder("10x2^3"))
    assert [n for n, _, _ in rows] == [10, 20, 40, 80]
    assert rows[1][1] == float("inf")
    assert rows[1][2] == "" and rows[2][2] == ""
    assert rows[3][2] != "" and np.isfinite(float(rows[3][2]))


@pytest.mark.parametrize("argv", [
    ["solve", "--flux=polynomial:[0,0,4,-4,1]", "--riemann=0,nan,1"],
    ["solve", "--flux=polynomial:[0,0,4,-4,1]", "--riemann=0,2,inf"],
    ["solve", "--flux=polynomial:[0,0,4,-4,1]", "--riemann=0,2,0", "--time=nan"],
    ["envelope", "--flux=polynomial:[0,0,4,-4,1]", "--states=inf,0"],
], ids=["riemann-nan", "riemann-inf", "time-nan", "states-inf"])
def test_non_finite_numbers_rejected(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + [f"--out={out}"]) == 1
    flag = next(a for a in argv if "nan" in a or "inf" in a).split("=")[0]
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra", [["--samples=0"], ["--samples=1"], ["--exact", "--samples=-3"]],
                         ids=["numerical-0", "numerical-1", "exact-negative"])
def test_samples_below_two_rejected(tmp_path, capsys, extra):
    out = tmp_path / "out"
    argv = ["solve", "--flux=polynomial:[0,0,4,-4,1]", "--riemann=0,2,0", f"--out={out}"]
    assert main(argv + extra) == 1
    assert "--samples" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flux", ["rational:[1]/[0,1]", "rational:[1]/[-0.3,1]",
                                  "rational:[1]/[0.09,-0.6,1]"])
@pytest.mark.parametrize("argv", [["solve", "--riemann=0,-1,1"],
                                  ["solve", "--riemann=0,-1,1", "--exact"],
                                  ["envelope", "--states=-1,1"]],
                         ids=["numerical", "exact", "envelope"])
def test_pole_inside_states_is_domain_failure(tmp_path, capsys, flux, argv):
    assert main(argv + [f"--flux={flux}", f"--out={tmp_path}"]) == 2
    err = capsys.readouterr().err
    assert "denominator vanishes at u = " in err and "[-1, 1]" in err
    assert not list(tmp_path.iterdir())
