import json

import numpy as np
import pytest

from bosonic_saddle import bell_classical_probability, Occupation
from bosonic_saddle.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_amplitude_hom_exact(matrix_files, capsys):
    code, out, _ = run_cli(
        capsys,
        "amplitude", "--matrix", str(matrix_files / "bs.json"),
        "--in", "1,1", "--out", "1,1", "--method", "exact",
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["schema"] == "v1"
    assert rec["re"] == 0.0
    assert rec["im"] == 0.0


def test_amplitude_csv_matrix_agrees(matrix_files, capsys):
    code_j, out_j, _ = run_cli(
        capsys,
        "amplitude", "--matrix", str(matrix_files / "bs.json"),
        "--in", "2,1", "--out", "1,2", "--method", "exact",
    )
    code_c, out_c, _ = run_cli(
        capsys,
        "amplitude", "--matrix", str(matrix_files / "bs.csv"),
        "--in", "2,1", "--out", "1,2", "--method", "exact",
    )
    assert code_j == code_c == 0
    assert json.loads(out_j)["re"] == json.loads(out_c)["re"]


def test_amplitude_malformed_occupation_exits_2(matrix_files, capsys):
    code, _, err = run_cli(
        capsys,
        "amplitude", "--matrix", str(matrix_files / "bs.json"),
        "--in", "1,x", "--out", "1,1",
    )
    assert code == 2
    assert "error" in err


def test_amplitude_malformed_matrix_json_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2, "entries": [[1, 2], [3, 4]]}')
    code, _, err = run_cli(
        capsys,
        "amplitude", "--matrix", str(path), "--in", "1,1", "--out", "1,1",
    )
    assert code == 2
    assert "malformed" in err


def test_amplitude_missing_matrix_exits_2(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "amplitude", "--matrix", str(tmp_path / "nope.json"),
        "--in", "1,1", "--out", "1,1",
    )
    assert code == 2


def test_amplitude_both_recovers_classical_bell(matrix_files, capsys):
    code, out, _ = run_cli(
        capsys,
        "amplitude", "--matrix", str(matrix_files / "bs.json"),
        "--in", "6,6", "--out", "4,8", "--method", "both",
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["classical_rel_error"] <= 1e-12
    want = bell_classical_probability(2, Occupation.of(4, 8))
    assert rec["results"]["classical"]["probability"] == pytest.approx(want, rel=1e-10)


def test_amplitude_coalescing_exits_3_with_diagnostics(matrix_files, capsys):
    code, out, _ = run_cli(
        capsys,
        "amplitude", "--matrix", str(matrix_files / "bs.json"),
        "--in", "10,50", "--out", "8,52", "--method", "approx",
    )
    assert code == 3
    rec = json.loads(out)
    assert rec["results"]["approx"]["error"] == "coalescing-saddles"
    assert rec["regime"] == "coalescing"


def test_scan_rows_and_normalization(matrix_files, capsys):
    code, out, _ = run_cli(
        capsys,
        "scan", "--matrix", str(matrix_files / "bs.json"),
        "--in", "2,1", "--method", "exact",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# bosonic-saddle scan v1"
    rows = lines[2:]
    assert len(rows) == 4
    total = sum(float(r.split(",")[4]) for r in rows)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_scan_classical_bell_rows(matrix_files, capsys):
    code, out, _ = run_cli(
        capsys,
        "scan", "--matrix", str(matrix_files / "tritter.json"),
        "--in", "2,2,2", "--method", "classical",
    )
    assert code == 0
    rows = out.strip().splitlines()[2:]
    total = 0.0
    for r in rows:
        m_str, _, prob = r.split(",")
        m = Occupation(tuple(int(v) for v in m_str.split(":")))
        want = bell_classical_probability(3, m)
        assert float(prob) == pytest.approx(want, rel=1e-10)
        total += float(prob)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_scan_refuses_huge_enumerations(matrix_files, capsys):
    code, _, err = run_cli(
        capsys,
        "scan", "--matrix", str(matrix_files / "bs.json"),
        "--in", "1000001,0", "--method", "exact",
    )
    assert code == 2
    assert "--force" in err


def test_scan_parity_zeros_in_exact_column(matrix_files, capsys):
    code, out, _ = run_cli(
        capsys,
        "scan", "--matrix", str(matrix_files / "bs.json"),
        "--in", "4,4", "--method", "exact",
    )
    rows = out.strip().splitlines()[2:]
    for r in rows:
        m_str = r.split(",")[0]
        m1 = int(m_str.split(":")[0])
        prob = float(r.split(",")[4])
        if m1 % 2:
            assert prob == 0.0


def test_saddles_beam_splitter_oscillatory(matrix_files, capsys):
    code, out, _ = run_cli(
        capsys,
        "saddles", "--matrix", str(matrix_files / "bs.json"),
        "--in", "6,6", "--out", "5,7",
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["count"] == 2
    assert all(s["contributing"] for s in rec["saddles"])
    assert all(s["residual"] <= 1e-12 for s in rec["saddles"])


def test_saddles_exit_4_when_degenerate(tmp_path, capsys):
    from bosonic_saddle import validate_unitary
    from bosonic_saddle.matrixio import save_matrix_json

    path = tmp_path / "ident.json"
    save_matrix_json(path, validate_unitary(np.eye(2)))
    code, out, _ = run_cli(
        capsys,
        "saddles", "--matrix", str(path), "--in", "1,1", "--out", "1,1",
    )
    assert code == 4
    assert json.loads(out)["saddles"] == []


def test_error_sweep_structure_and_flags(matrix_files, capsys):
    code, out, _ = run_cli(
        capsys,
        "error-sweep", "--matrix", str(matrix_files / "bs.json"),
        "--in-fractions", "1/2:1/2", "--out-fractions", "1/2:1/2",
        "--n-min", "8", "--n-max", "24", "--n-step", "2",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# bosonic-saddle sweep v1"
    header = lines[1].split(",")
    rows = [dict(zip(header, l.split(","))) for l in lines[2:]]
    # fractions give integers at even N only; all requested N here are even
    assert [int(r["N"]) for r in rows] == list(range(8, 25, 2))
    for r in rows:
        if int(r["N"]) % 4:
            # odd m1 = N/2: suppressed output, both engines exactly zero
            assert r["flag"] in ("suppressed-both", "suppressed")
            assert r["rel_error"] == ""
        else:
            assert r["flag"] == ""
            assert float(r["rel_error"]) < 0.1
            assert float(r["c_of_n"]) == pytest.approx(
                float(r["rel_error"]) * int(r["N"]), rel=1e-9
            )


def test_error_sweep_marks_coalescing_rows(matrix_files, capsys):
    code, out, _ = run_cli(
        capsys,
        "error-sweep", "--matrix", str(matrix_files / "bs.json"),
        "--in-fractions", "1/6:5/6", "--out-fractions", "2/15:13/15",
        "--n-min", "60", "--n-max", "60", "--n-step", "1",
    )
    assert code == 0
    rows = out.strip().splitlines()[2:]
    assert len(rows) == 1
    row = rows[0].split(",")
    header = out.strip().splitlines()[1].split(",")
    rec = dict(zip(header, row))
    assert rec["regime"] == "coalescing"
    assert rec["flag"] == "coalescing"
    assert rec["rel_error"] == ""


def test_outputs_are_byte_stable(matrix_files, capsys):
    argv = [
        "amplitude", "--matrix", str(matrix_files / "bs.json"),
        "--in", "6,6", "--out", "4,8", "--method", "both",
    ]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2

    argv = [
        "saddles", "--matrix", str(matrix_files / "tritter.json"),
        "--in", "2,2,2", "--out", "2,2,2",
    ]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_error_sweep_byte_stable_modulo_timings(matrix_files, capsys, monkeypatch):
    monkeypatch.setenv("BOSONIC_SADDLE_THREADS", "2")
    argv = [
        "error-sweep", "--matrix", str(matrix_files / "bs.json"),
        "--in-fractions", "1/2:1/2", "--out-fractions", "1/2:1/2",
        "--n-min", "8", "--n-max", "16", "--n-step", "4",
    ]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)

    def strip_times(text):
        lines = text.strip().splitlines()
        header = lines[1].split(",")
        keep = [i for i, h in enumerate(header) if not h.startswith("wall_time")]
        body = [",".join(l.split(",")[i] for i in keep) for l in lines[1:]]
        return [lines[0]] + body

    assert strip_times(out1) == strip_times(out2)


def test_bench_json_structure(matrix_files, capsys):
    code, out, _ = run_cli(
        capsys,
        "bench", "--matrix", str(matrix_files / "tritter.json"),
        "--n-list", "9,18", "--min-time", "0.02",
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["schema"] == "v1"
    assert "precision" not in rec
    assert len(rec["rows"]) == 2
    for row in rec["rows"]:
        assert row["flop_lower"] < row["instrumented_flops"] < row["flop_upper"]
        assert row["dps_used"] > 0
        assert row["condition_log10"] >= 0
    assert rec["fitted_exponent"] is not None


def test_bench_rejects_indivisible_n(matrix_files, capsys):
    code, _, err = run_cli(
        capsys,
        "bench", "--matrix", str(matrix_files / "tritter.json"), "--n-list", "10",
    )
    assert code == 2
    assert "divisible" in err
