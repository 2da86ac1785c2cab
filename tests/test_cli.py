import random
from fractions import Fraction

import pytest

from misdyn import digraph as dg
from misdyn.cli import main
from misdyn.system import read_mis_config, write_mis_config

from helpers import bipartite_single_edge_sequence, random_stochastic

F = Fraction


CONSTANT_CONFIG = """\
n=2
omega=1/4
delta=0
cell: . matrix:
  1/2 1/2
  1/4 3/4
"""



FIXTURES = __file__.rsplit("/", 1)[0] + "/fixtures"


def test_parse_command(tmp_path, capsys):
    seq_file = FIXTURES + "/bipartite_4x4.txt"
    assert dg.read_sequence_text(open(seq_file).read()) == (
        bipartite_single_edge_sequence(4)
    )
    dump = tmp_path / "tree.txt"
    dot = tmp_path / "tree.dot"
    code = main(["parse", seq_file, "--dump", str(dump), "--dot", str(dot)])
    assert code == 0
    out = capsys.readouterr().out
    assert "leaves=16" in out
    depth = int(out.split("depth=")[1].split()[0])
    assert depth >= 16
    assert dump.read_text().startswith("node")
    assert "->" in dot.read_text()


def test_parse_command_rejects_bad_header(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("m=3\n1 2\n")
    code = main(["parse", str(bad)])
    assert code == 2
    assert "n=" in capsys.readouterr().err


def test_parse_command_reads_65_vertices(tmp_path, capsys):
    seq = tmp_path / "n65.txt"
    seq.write_text("n=65\n1 2\n65 1\n")
    assert main(["parse", str(seq)]) == 0
    assert capsys.readouterr().out.endswith("leaves=1 depth=1\n")


def test_simulate_constant_config(tmp_path, capsys):
    cfg = tmp_path / "sys.txt"
    cfg.write_text(CONSTANT_CONFIG)
    trace = tmp_path / "trace.csv"
    code = main(
        [
            "simulate",
            str(cfg),
            "--x0",
            "1,0",
            "--horizon",
            "200",
            "--trace",
            str(trace),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict=asymptotically-periodic" in out and "period=1" in out
    lines = trace.read_text().splitlines()
    assert lines[0] == "step,cell,x_1,x_2"
    assert lines[1] == "0,0,1,0"


def test_simulate_clock0_config_period_four(tmp_path, capsys):
    # The clock's reset rows have zero diagonals; its config opts into
    # unchecked mode and must round-trip through the reader.
    from misdyn.constructions import build_clock

    sys0, x0 = build_clock(0)
    cfg = tmp_path / "clock0.txt"
    cfg.write_text(write_mis_config(sys0))
    assert "unchecked=1" in cfg.read_text()
    assert read_mis_config(cfg.read_text()) == sys0
    code = main(
        ["simulate", str(cfg), "--x0", "1,0", "--horizon", "100"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict=exact-periodic" in out and "period=4" in out


def test_config_reader_still_rejects_zero_diagonal_without_optin():
    bad = "n=2\ncell: . matrix: 1/2 1/2 1 0\n"
    with pytest.raises(Exception):
        read_mis_config(bad)


def test_unchecked_applies_to_the_cells_before_it(tmp_path, capsys):
    cfg = tmp_path / "swap.txt"
    cfg.write_text("n=2\ncell: . matrix: 0 1 1 0\nunchecked=1\n")
    assert main(["simulate", str(cfg), "--x0", "1,0", "--horizon", "10"]) == 0
    assert "verdict=exact-periodic transient=0 period=2" in capsys.readouterr().out
    cfg.write_text("n=2\ncell: . matrix: 0 1 1 0\nunchecked=0\n")
    assert main(["simulate", str(cfg), "--x0", "1,0"]) == 2
    assert "line 2: cell matrix has a zero diagonal entry" in _one_error_line(capsys)


def test_clock_command(capsys):
    code = main(["clock", "--levels", "0", "--horizon", "100"])
    assert code == 0
    assert "period=4" in capsys.readouterr().out
    code = main(["clock", "--levels", "1", "--horizon", "2000"])
    assert code == 0
    assert "period=28" in capsys.readouterr().out


def test_clock_command_writes_a_trace(tmp_path, capsys):
    trace = tmp_path / "clock.csv"
    args = ["clock", "--levels", "1", "--horizon", "2000", "--trace", str(trace)]
    assert main(args + ["--trace-steps", "6"]) == 0
    assert "period=28" in capsys.readouterr().out
    lines = trace.read_text().splitlines()
    assert lines[0] == "step,cell,x_1,x_2,x_3,x_4,x_5"
    assert lines[1] == "0,0,1/4,1/4,1/2,0,0"
    assert len(lines) == 1 + 7 and lines[-1].startswith("6,,")


# One plane 2 x_1 = 1 + delta: an identity cell above it, a rank-one cell below.
PLANE_CONFIG = (
    "n=2\nomega=1/4\ndelta=0\nhyperplane: 2 0\n"
    "cell: + matrix: 1 0 0 1\ncell: - matrix: 1/3 2/3 1/3 2/3\n"
)


def test_simulate_delta_overrides_the_config(tmp_path, capsys):
    # The start (1/2, 1/2) sits on the plane 2 x_1 = 1 + delta at delta 0;
    # below it, for delta = 1/8, the rank-one cell moves it once.
    cfg = tmp_path / "sys.txt"
    cfg.write_text(PLANE_CONFIG)
    args = ["simulate", str(cfg), "--x0", "1/2,1/2", "--horizon", "20"]
    assert main(args) == 0
    assert capsys.readouterr().out == "verdict=exact-periodic transient=0 period=1\n"
    assert main(args + ["--delta", "1/8"]) == 0
    assert capsys.readouterr().out == "verdict=exact-periodic transient=1 period=1 tau=0\n"
    assert main(args + ["--delta=-1/8"]) == 0
    assert capsys.readouterr().out == "verdict=exact-periodic transient=0 period=1 tau=1\n"


def test_simulate_takes_a_negative_delta_in_both_spellings(tmp_path, capsys):
    cfg = tmp_path / "sys.txt"
    cfg.write_text(PLANE_CONFIG)
    args = ["simulate", str(cfg), "--x0", "1/2,1/2", "--horizon", "20"]
    for spelling in (["--delta=-1/8"], ["--delta", "-1/8"]):
        assert main(args + spelling) == 0
        assert capsys.readouterr().out == "verdict=exact-periodic transient=0 period=1 tau=1\n"


def test_baker_takes_a_negative_delta_in_both_spellings(tmp_path, capsys):
    out = tmp_path / "baker.csv"
    args = ["baker", "--steps", "5", "--seed", "3", "--out", str(out)]
    written = []
    for spelling in ([], ["--delta=-1/16"], ["--delta", "-1/16"]):
        assert main(args + spelling) == 0
        written.append(out.read_text())
    capsys.readouterr()
    assert written[0] != written[1] == written[2]


def test_simulate_baker_config_unresolved(tmp_path, capsys):
    from misdyn.constructions import build_baker

    system, sampler = build_baker()
    cfg = tmp_path / "baker.txt"
    cfg.write_text(write_mis_config(system))
    x0 = sampler(random.Random(5))
    x0_text = ",".join(f"{c.numerator}/{c.denominator}" for c in x0)
    code = main(["simulate", str(cfg), "--x0", x0_text, "--horizon", "400"])
    assert code == 0
    assert "verdict=unresolved" in capsys.readouterr().out


def test_baker_command(tmp_path, capsys):
    out_csv = tmp_path / "baker.csv"
    code = main(["baker", "--steps", "50", "--seed", "3", "--out", str(out_csv)])
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "step,cell,z"
    assert len(lines) == 51


def test_sweep_deterministic_and_csv(tmp_path, capsys):
    cfg = tmp_path / "sys.txt"
    rng = random.Random(80)
    from misdyn.system import Cell, Hyperplane, MISystem

    sys_ = MISystem(
        3,
        (Hyperplane((1, F(9, 8), F(7, 8))),),
        (
            Cell("+", random_stochastic(rng, 3)),
            Cell("-", random_stochastic(rng, 3)),
        ),
        omega=F(1, 8),
    )
    cfg.write_text(write_mis_config(sys_))
    out1 = tmp_path / "sweep1.csv"
    out2 = tmp_path / "sweep2.csv"
    args = [
        "sweep",
        str(cfg),
        "--grid-points",
        "8",
        "--samples",
        "2",
        "--seed",
        "11",
        "--horizon",
        "400",
    ]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "delta,x0_index,status,transient,period,tau_block"
    assert len(lines) == 17


def test_sweep_include_endpoints(tmp_path, capsys):
    cfg = tmp_path / "sys.txt"
    cfg.write_text(CONSTANT_CONFIG)
    out = tmp_path / "sweep.csv"
    args = ["sweep", str(cfg), "--out", str(out), "--grid-points", "3", "--samples", "1"]
    assert main(args + ["--horizon", "100", "--include-endpoints"]) == 0
    assert "cells=3" in capsys.readouterr().out
    deltas = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
    assert deltas == ["-1/4", "0", "1/4"]


def test_lift_roundtrip_through_simulate(tmp_path, capsys):
    lift_in = tmp_path / "lift.txt"
    lift_in.write_text(
        "n=2\n"
        "xi: 0 1\n"
        "threshold: 1/10\n"
        "A: 1/2 1/2 1/4 3/4\n"
        "B: 3/4 1/4 1/2 1/2\n"
    )
    out_cfg = tmp_path / "lifted.txt"
    assert main(["lift", str(lift_in), "--out", str(out_cfg)]) == 0
    assert "n=4" in capsys.readouterr().out
    lifted = read_mis_config(out_cfg.read_text())
    assert lifted.n == 4
    # Round trip: simulate the written config from a lifted corner state.
    code = main(
        [
            "simulate",
            str(out_cfg),
            "--x0",
            "1,0,0,0",
            "--horizon",
            "300",
        ]
    )
    assert code == 0
    assert "verdict=" in capsys.readouterr().out


def test_simulate_dyadic_mode(tmp_path, capsys):
    cfg = tmp_path / "sys.txt"
    cfg.write_text(CONSTANT_CONFIG)
    code = main(
        [
            "simulate",
            str(cfg),
            "--x0",
            "1,0",
            "--horizon",
            "200",
            "--mode",
            "dyadic",
            "--dyadic-bits",
            "24",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    # Rounding collapses the tail of the convergent orbit to a repeat.
    assert "verdict=periodic" in out and "inexact=1" in out


def test_lift_constant_observable_single_cell(tmp_path, capsys):
    lift_in = tmp_path / "lift.txt"
    lift_in.write_text(
        "n=2\n"
        "xi: 2 2\n"
        "threshold: 1\n"
        "A: 1/2 1/2 1/4 3/4\n"
        "B: 3/4 1/4 1/2 1/2\n"
    )
    out_cfg = tmp_path / "lifted.txt"
    assert main(["lift", str(lift_in), "--out", str(out_cfg)]) == 0
    lifted = read_mis_config(out_cfg.read_text())
    assert len(lifted.hyperplanes) == 0 and len(lifted.cells) == 1


def _one_error_line(capsys):
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    return lines[0]


# Inputs of test_bad_input_is_one_error_line, each written to <name>.txt.
INPUT_FILES = {
    "cfg": CONSTANT_CONFIG,
    "lift_without_n": "xi: 0 1\nthreshold: 1/10\nA: 1/2 1/2 1/4 3/4\n",
    "lift_extra_entries": (
        "n=2\nxi: 0 1\nthreshold: 1/10\nA: 1/2 1/2 1/4 3/4 9 9\nB: 3/4 1/4 1/2 1/2\n"
    ),
    "lift_not_stochastic": (
        "n=2\nxi: 0 1\nthreshold: 1/10\nA: 1/2 1/2\n  1/4 1/4\nB: 3/4 1/4 1/2 1/2\n"
    ),
    "lift_xi_long": "n=2\nxi: 0 1 2\nthreshold: 1/10\nA: 1/2 1/2 1/4 3/4\nB: 3/4 1/4 1/2 1/2\n",
    "lift_xi_before_n": (
        "xi: 0 1 2\nn=2\nthreshold: 1/10\nA: 1/2 1/2 1/4 3/4\nB: 3/4 1/4 1/2 1/2\n"
    ),
    "lift_unrecognized": "n=2\nxi: 0 1\nC: 1 0 0 1\n",
    "lift_incomplete": "n=2\nxi: 0 1\nthreshold: 1/10\nA: 1/2 1/2 1/4 3/4\n",
    "seq_n0": "n=0\n",
    "lift_n0": "n=0\nxi:\nthreshold: 1\nA:\nB:\n",
    "cfg_n0": "# no states\nn=0\ncell: . matrix:\n",
    "cfg_hyperplane_before_n": "hyperplane: 1 1\nn=2\n",
    "cfg_cell_before_n": "# header\ncell: . matrix: 1\nn=1\n",
    "cfg_cell_without_pattern": "n=1\ncell:\n",
    "cfg_cell_without_matrix": "n=1\ncell: . 1\n",
    "cfg_matrix_short": "n=2\ncell: . matrix:\n  1/2 1/2\n",
    "cfg_without_n": "omega=1/4\ndelta=0\n",
    "cfg_n_twice": "n=3\nn=2\ncell: . matrix: 1 0 0 1\n",
    "cfg_bad_pattern": "n=1\nhyperplane: 2\ncell: x matrix: 1\n",
    "cfg_omega_half": "n=1\nomega=1/2\ncell: . matrix: 1\n",
    # delta=1/5 fits the default window [-1/4, 1/4] but not the final one.
    "cfg_delta_past_omega": "n=1\ndelta=1/5\nomega=1/8\ncell: . matrix: 1\n",
    "cfg_omega_twice": "n=1\nomega=1/4\nomega=1/8\ncell: . matrix: 1\n",
    "cfg_unchecked_yes": "n=1\nunchecked=yes\ncell: . matrix: 1\n",
    "cfg_hyperplane_after_cell": "n=1\ncell: . matrix: 1\nhyperplane: 2\n",
    "lift_threshold_twice": (
        "n=2\nxi: 0 1\nthreshold: 1/10\nthreshold: 1/5\nA: 1/2 1/2 1/4 3/4\nB: 3/4 1/4 1/2 1/2\n"
    ),
    "lift_n_twice": "n=2\nxi: 0 1\nthreshold: 1/10\nA: 1/2 1/2 1/4 3/4\nn=1\nB: 1\n",
}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "{cfg}", "--x0", "1,0", "--horizon", "0"], "horizon must be at least 1"),
        (["simulate", "{cfg}", "--x0", "1/2,1/4,1/4"], "start vector has 3 coordinates"),
        (["simulate", "{missing}", "--x0", "1,0"], "No such file"),
        (["sweep", "{cfg}", "--out", "{out}", "--grid-points", "0"], "--grid-points"),
        (["sweep", "{missing}", "--out", "{out}"], "No such file"),
        (["baker", "--steps", "0", "--out", "{out}"], "horizon must be at least 1"),
        (["baker", "--x0", "1/2,1/2", "--out", "{out}"], "start vector has 2 coordinates"),
        (["parse", "{missing}"], "No such file"),
        (["lift", "{lift_without_n}", "--out", "{out}"], "line 3: matrix before n="),
        (["lift", "{lift_extra_entries}", "--out", "{out}"], "line 4: too many matrix entries"),
        (["lift", "{lift_not_stochastic}", "--out", "{out}"], "line 4: row 1 does not sum to 1"),
        (["lift", "{lift_xi_long}", "--out", "{out}"], "line 2: xi has 3 entries for n=2"),
        (["lift", "{lift_xi_before_n}", "--out", "{out}"], "line 1: xi has 3 entries for n=2"),
        (["parse", "{seq_n0}"], "line 1: vertex count 0 must be at least 1"),
        (["lift", "{lift_n0}", "--out", "{out}"], "line 1: state count 0 must be at least 1"),
        (["simulate", "{cfg_n0}", "--x0", "1"], "line 2: state count 0 must be at least 1"),
        (
            ["sweep", "{cfg}", "--out", "{out}", "--horizon", "0", "--grid-points", "2",
             "--samples", "1"],
            "horizon must be at least 1",
        ),
        (["sweep", "{cfg}", "--out", "{out}", "--denominator", "0"],
         "denominator 0 must be at least 1"),
        (["sweep", "{cfg}", "--out", "{out}", "--denominator", "-3"],
         "denominator -3 must be at least 1"),
        (["simulate", "{cfg_hyperplane_before_n}", "--x0", "1,0"],
         "line 1: hyperplane before n="),
        (["simulate", "{cfg_cell_before_n}", "--x0", "1"], "line 2: cell before n="),
        (["simulate", "{cfg_cell_without_pattern}", "--x0", "1"],
         "line 2: cell line needs a sign pattern"),
        (["simulate", "{cfg_cell_without_matrix}", "--x0", "1"],
         "line 2: expected 'matrix:' after the pattern"),
        (["simulate", "{cfg_matrix_short}", "--x0", "1,0"], "line 2: matrix entries missing"),
        (["simulate", "{cfg_without_n}", "--x0", "1"], "error: missing n="),
        (["simulate", "{cfg_n_twice}", "--x0", "1,0"], "line 2: n= given twice"),
        (["lift", "{lift_n_twice}", "--out", "{out}"], "line 5: n= given twice"),
        (["baker", "--x0", "1/8,1/4,3/8,1/4,0", "--out", "{out}"], "2*x1 equals x4"),
        (["simulate", "{cfg}", "--x0", "1,0", "--mode", "dyadic", "--dyadic-bits", "-3"],
         "dyadic precision -3 must be at least 1"),
        (["lift", "{lift_unrecognized}", "--out", "{out}"], "line 3: unrecognized line 'C: 1 0 0 1'"),
        (["lift", "{lift_incomplete}", "--out", "{out}"],
         "lift input needs n=, xi:, threshold:, A: and B:"),
        (["simulate", "{cfg}", "--x0", "1,0", "--bit-cap", "0"], "bit cap 0 must be at least 1"),
        (["simulate", "{cfg_bad_pattern}", "--x0", "1"], "line 3: bad pattern character in 'x'"),
        (["simulate", "{cfg_omega_half}", "--x0", "1"],
         "line 2: omega must lie strictly between 0 and 1/2"),
        (["simulate", "{cfg_delta_past_omega}", "--x0", "1"],
         "line 2: delta outside [-omega, omega]"),
        (["simulate", "{cfg_omega_twice}", "--x0", "1"], "line 3: omega= given twice"),
        (["simulate", "{cfg_unchecked_yes}", "--x0", "1"],
         "line 2: unchecked= must be 0 or 1, got 'yes'"),
        (["lift", "{lift_threshold_twice}", "--out", "{out}"], "line 4: threshold: given twice"),
        (["baker", "--out", "{out}", "--bit-cap", "-5"], "bit cap -5 must be at least 1"),
        (["simulate", "{cfg_hyperplane_after_cell}", "--x0", "1"],
         "line 2: pattern '' does not cover 1 hyperplanes"),
        (["clock", "--trace", "{out}", "--trace-steps", "0"], "--trace-steps must be at least 1"),
    ],
    ids=[
        "simulate-horizon-0",
        "simulate-x0-wrong-length",
        "simulate-missing-file",
        "sweep-grid-points-0",
        "sweep-missing-file",
        "baker-steps-0",
        "baker-x0-wrong-length",
        "parse-missing-file",
        "lift-without-n",
        "lift-extra-entries",
        "lift-not-stochastic",
        "lift-xi-too-long",
        "lift-xi-before-n",
        "parse-n-0",
        "lift-n-0",
        "simulate-n-0",
        "sweep-horizon-0",
        "sweep-denominator-0",
        "sweep-denominator-negative",
        "config-hyperplane-before-n",
        "config-cell-before-n",
        "config-cell-without-pattern",
        "config-cell-without-matrix",
        "config-matrix-entries-missing",
        "config-without-n",
        "config-n-twice",
        "lift-n-twice",
        "baker-degenerate-start",
        "simulate-dyadic-bits-negative",
        "lift-unrecognized-line",
        "lift-missing-keys",
        "simulate-bit-cap-0",
        "config-bad-pattern-character",
        "config-omega-half",
        "config-delta-past-final-omega",
        "config-omega-twice",
        "config-unchecked-yes",
        "lift-threshold-twice",
        "baker-bit-cap-negative",
        "config-hyperplane-after-cell",
        "clock-trace-steps-0",
    ],
)
def test_bad_input_is_one_error_line(tmp_path, capsys, argv, message):
    paths = {
        "missing": str(tmp_path / "no-such-file.txt"),
        "out": str(tmp_path / "out.csv"),
    }
    for name, text in INPUT_FILES.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        paths[name] = str(path)
    code = main([arg.format(**paths) for arg in argv])
    assert code == 2
    assert message in _one_error_line(capsys)
    assert not (tmp_path / "out.csv").exists()


def test_simulate_reports_bit_cap_and_no_cell_match(tmp_path, capsys):
    cfg = tmp_path / "sys.txt"
    cfg.write_text(CONSTANT_CONFIG)
    assert main(["simulate", str(cfg), "--x0", "1,0", "--bit-cap", "8"]) == 4
    assert "bits (cap 8)" in _one_error_line(capsys)
    uncovered = tmp_path / "uncovered.txt"
    uncovered.write_text(
        "n=2\nhyperplane: 2 1\ncell: - matrix:\n  1/2 1/2\n  1/4 3/4\n"
    )
    assert main(["simulate", str(uncovered), "--x0", "1,0"]) == 3
    assert "no cell matches" in _one_error_line(capsys)
