import json

import pytest

from mockq.cli import main, parse_tau


def test_parse_tau():
    assert parse_tau("0.25+1i") == 0.25 + 1j
    assert parse_tau("i") == 1j
    assert parse_tau("2i") == 2j
    assert parse_tau("-0.3+0.75i") == -0.3 + 0.75j
    assert parse_tau("0+2.5i") == 2.5j
    with pytest.raises(ValueError):
        parse_tau("0.5-1i")  # lower half-plane
    with pytest.raises(ValueError):
        parse_tau("bananas")
    for text in ("1e400i", "nani", "0.25+1j"):  # infinite, NaN, Python's j
        with pytest.raises(ValueError):
            parse_tau(text)


def test_verify_json(capsys):
    code = main(["verify", "--id", "NEWOMEGA", "--order", "25", "--json"])
    out = capsys.readouterr().out
    data = json.loads(out)
    assert code == 0
    assert data[0]["id"] == "NEWOMEGA" and data[0]["status"] == "pass"


def test_verify_all_json(capsys):
    code = main(["verify-all", "--order", "5", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(data) == 44
    assert [row["id"] for row in data] == sorted(row["id"] for row in data)
    assert all(row["status"] == "pass" for row in data)


def test_verify_unknown_id(capsys):
    code = main(["verify", "--id", "NO_SUCH"])
    err = capsys.readouterr().err
    assert code == 2
    assert "NEWOMEGA" in err  # diagnostic names valid ids


def test_bad_order(capsys):
    assert main(["verify", "--id", "NEWOMEGA", "--order", "0"]) == 2


def test_bad_subcommand():
    assert main(["not-a-command"]) == 2


def test_jobs_option_is_gone(capsys):
    assert main(["verify-all", "--jobs", "4"]) == 2
    assert "unrecognized arguments: --jobs 4" in capsys.readouterr().err


def test_numeric_single_check(capsys):
    code = main(
        ["numeric", "--check", "s-transform", "--tau", "0.25+1i", "--tol", "1e-8"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "residual" in out


def test_numeric_bad_tau():
    assert main(["numeric", "--check", "etatrans", "--tau", "1-2i"]) == 2


def test_numeric_unknown_check(capsys):
    code = main(["numeric", "--check", "warp-drive", "--tau", "i"])
    assert code == 2


def test_coeffs_dump_format(capsys):
    code = main(["coeffs", "--id", "FIDWAT", "--order", "5"])
    out = capsys.readouterr().out
    assert code == 0
    first = out.splitlines()[0]
    head, _, tail = first.partition("\t")
    assert head.endswith("/24")
    assert len(tail.split()) == 8


def test_list(capsys):
    code = main(["list"])
    out = capsys.readouterr().out
    assert code == 0
    assert "NEWOMEGA" in out and "s-transform" in out


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["verify", "--id", "ASSEMBLY_CONSTANT", "--order", "5",
                 "--json", "--out", str(path)])
    assert code == 0
    data = json.loads(path.read_text())
    assert data[0]["status"] == "pass"
