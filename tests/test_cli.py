"""End-to-end CLI behavior: golden outputs, formats, exit codes."""

import csv
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from runlab import cli, triangles
from tests import faults


#: stdout of ``grammar --builtin NAME --word SEED --n 8`` in plain, JSON and
#: CSV; any change to term order, exponents or coefficient types shows here.
GRAMMAR_N8 = {
    ("main", "x^2"): (
        '2*x^2*y*z^7 + 508*x^2*y^2*z^6 + 8814*x^2*y^3*z^5 + '
        '45096*x^2*y^4*z^4 + 103326*x^2*y^5*z^3 + 119964*x^2*y^6*z^2 + '
        '69298*x^2*y^7*z + 15872*x^2*y^8\n',
        '[{"coeff":"2","mono":{"x":2,"y":1,"z":7}},'
        '{"coeff":"508","mono":{"x":2,"y":2,"z":6}},'
        '{"coeff":"8814","mono":{"x":2,"y":3,"z":5}},'
        '{"coeff":"45096","mono":{"x":2,"y":4,"z":4}},'
        '{"coeff":"103326","mono":{"x":2,"y":5,"z":3}},'
        '{"coeff":"119964","mono":{"x":2,"y":6,"z":2}},'
        '{"coeff":"69298","mono":{"x":2,"y":7,"z":1}},'
        '{"coeff":"15872","mono":{"x":2,"y":8}}]\n',
        "coeff,x,y,z\n"
        "2,2,1,7\n508,2,2,6\n8814,2,3,5\n45096,2,4,4\n"
        "103326,2,5,3\n119964,2,6,2\n69298,2,7,1\n15872,2,8,0\n",
    ),
    ("dumont", "x"): (
        'x*y^8 + 247*x^2*y^7 + 4293*x^3*y^6 + 15619*x^4*y^5 + '
        '15619*x^5*y^4 + 4293*x^6*y^3 + 247*x^7*y^2 + x^8*y\n',
        '[{"coeff":"1","mono":{"x":1,"y":8}},'
        '{"coeff":"247","mono":{"x":2,"y":7}},'
        '{"coeff":"4293","mono":{"x":3,"y":6}},'
        '{"coeff":"15619","mono":{"x":4,"y":5}},'
        '{"coeff":"15619","mono":{"x":5,"y":4}},'
        '{"coeff":"4293","mono":{"x":6,"y":3}},'
        '{"coeff":"247","mono":{"x":7,"y":2}},'
        '{"coeff":"1","mono":{"x":8,"y":1}}]\n',
        "coeff,x,y\n"
        "1,1,8\n247,2,7\n4293,3,6\n15619,4,5\n"
        "15619,5,4\n4293,6,3\n247,7,2\n1,8,1\n",
    ),
    ("peaks", "y"): (
        'y*z^8 + 1636*y^3*z^6 + 18270*y^5*z^4 + 19028*y^7*z^2 + 1385*y^9\n',
        '[{"coeff":"1","mono":{"y":1,"z":8}},'
        '{"coeff":"1636","mono":{"y":3,"z":6}},'
        '{"coeff":"18270","mono":{"y":5,"z":4}},'
        '{"coeff":"19028","mono":{"y":7,"z":2}},'
        '{"coeff":"1385","mono":{"y":9}}]\n',
        "coeff,y,z\n"
        "1,1,8\n1636,3,6\n18270,5,4\n19028,7,2\n1385,9,0\n",
    ),
    ("schett", "x"): (
        'x*z^8 + 1228*x*y^2*z^6 + 5478*x*y^4*z^4 + 1228*x*y^6*z^2 + '
        'x*y^8 + 408*x^3*z^6 + 11880*x^3*y^2*z^4 + 11880*x^3*y^4*z^2 + '
        '408*x^3*y^6 + 912*x^5*z^4 + 5856*x^5*y^2*z^2 + 912*x^5*y^4 + '
        '64*x^7*z^2 + 64*x^7*y^2\n',
        '[{"coeff":"1","mono":{"x":1,"z":8}},'
        '{"coeff":"1228","mono":{"x":1,"y":2,"z":6}},'
        '{"coeff":"5478","mono":{"x":1,"y":4,"z":4}},'
        '{"coeff":"1228","mono":{"x":1,"y":6,"z":2}},'
        '{"coeff":"1","mono":{"x":1,"y":8}},'
        '{"coeff":"408","mono":{"x":3,"z":6}},'
        '{"coeff":"11880","mono":{"x":3,"y":2,"z":4}},'
        '{"coeff":"11880","mono":{"x":3,"y":4,"z":2}},'
        '{"coeff":"408","mono":{"x":3,"y":6}},'
        '{"coeff":"912","mono":{"x":5,"z":4}},'
        '{"coeff":"5856","mono":{"x":5,"y":2,"z":2}},'
        '{"coeff":"912","mono":{"x":5,"y":4}},'
        '{"coeff":"64","mono":{"x":7,"z":2}},'
        '{"coeff":"64","mono":{"x":7,"y":2}}]\n',
        "coeff,x,y,z\n"
        "1,1,0,8\n1228,1,2,6\n5478,1,4,4\n1228,1,6,2\n1,1,8,0\n"
        "408,3,0,6\n11880,3,2,4\n11880,3,4,2\n408,3,6,0\n"
        "912,5,0,4\n5856,5,2,2\n912,5,4,0\n64,7,0,2\n64,7,2,0\n",
    ),
}


#: stdout of ``verify all`` in each format at the defaults; the reports'
#: order, params and serialization must not drift.
VERIFY_ALL = {
    "plain": (
        'PASS closed/alt-from-runs (n_max=25)\n'
        'PASS closed/david-barton (n_max=12, points=27)\n'
        'PASS closed/runs-from-peaks (n_max=20, points=22)\n'
        'PASS closed/tangent (n_max=12, points=27)\n'
        'PASS gf/altsubseq[x0=1/2] (x0=1/2, order=12)\n'
        'PASS gf/altsubseq[x0=1/3] (x0=1/3, order=12)\n'
        'PASS gf/carlitz[x0=0] (x0=0, order=12)\n'
        'PASS gf/carlitz[x0=1/2] (x0=1/2, order=12)\n'
        'PASS gf/carlitz[x0=1/3] (x0=1/3, order=12)\n'
        'PASS gf/stanley[t0=1/2] (t0=1/2, order=12)\n'
        'PASS gf/stanley[t0=1/3] (t0=1/3, order=12)\n'
        'PASS grammar/altsubseq (n_max=12)\n'
        'PASS grammar/eulerian (n_max=12, oracle_n_max=8)\n'
        'PASS grammar/leibniz (n_max=10, cases=100, seed=20240801)\n'
        'PASS grammar/peaks (n_max=12, oracle_n_max=8)\n'
        'PASS grammar/runs (n_max=12)\n'
        'PASS oracle/triangles (n_max=8)\n'
        'PASS poly/convolutions (n_max=20)\n'
        'PASS poly/recurrences (n_max=20)\n'
        '19/19 checks passed\n'
    ),
    "json": (
        '{"identity":"closed/alt-from-runs","params":{"n_max":25}'
        ',"passed":true,"first_failure":null}\n'
        '{"identity":"closed/david-barton","params":{"n_max":12,"points":27}'
        ',"passed":true,"first_failure":null}\n'
        '{"identity":"closed/runs-from-peaks","params":{"n_max":20,"points":22}'
        ',"passed":true,"first_failure":null}\n'
        '{"identity":"closed/tangent","params":{"n_max":12,"points":27}'
        ',"passed":true,"first_failure":null}\n'
        '{"identity":"gf/altsubseq[x0=1/2]","params":{"x0":"1/2","order":12}'
        ',"passed":true,"first_failure":null}\n'
        '{"identity":"gf/altsubseq[x0=1/3]","params":{"x0":"1/3","order":12}'
        ',"passed":true,"first_failure":null}\n'
        '{"identity":"gf/carlitz[x0=0]","params":{"x0":"0","order":12}'
        ',"passed":true,"first_failure":null}\n'
        '{"identity":"gf/carlitz[x0=1/2]","params":{"x0":"1/2","order":12}'
        ',"passed":true,"first_failure":null}\n'
        '{"identity":"gf/carlitz[x0=1/3]","params":{"x0":"1/3","order":12}'
        ',"passed":true,"first_failure":null}\n'
        '{"identity":"gf/stanley[t0=1/2]","params":{"t0":"1/2","order":12}'
        ',"passed":true,"first_failure":null}\n'
        '{"identity":"gf/stanley[t0=1/3]","params":{"t0":"1/3","order":12}'
        ',"passed":true,"first_failure":null}\n'
        '{"identity":"grammar/altsubseq","params":{"n_max":12}'
        ',"passed":true,"first_failure":null}\n'
        '{"identity":"grammar/eulerian","params":{"n_max":12,"oracle_n_max":8}'
        ',"passed":true,"first_failure":null}\n'
        '{"identity":"grammar/leibniz","params":{"n_max":10,"cases":100,"seed":20240801}'
        ',"passed":true,"first_failure":null}\n'
        '{"identity":"grammar/peaks","params":{"n_max":12,"oracle_n_max":8}'
        ',"passed":true,"first_failure":null}\n'
        '{"identity":"grammar/runs","params":{"n_max":12}'
        ',"passed":true,"first_failure":null}\n'
        '{"identity":"oracle/triangles","params":{"n_max":8}'
        ',"passed":true,"first_failure":null}\n'
        '{"identity":"poly/convolutions","params":{"n_max":20}'
        ',"passed":true,"first_failure":null}\n'
        '{"identity":"poly/recurrences","params":{"n_max":20}'
        ',"passed":true,"first_failure":null}\n'
    ),
    "csv": (
        'identity,passed,n,point,lhs,rhs\n'
        'closed/alt-from-runs,True,,,,\n'
        'closed/david-barton,True,,,,\n'
        'closed/runs-from-peaks,True,,,,\n'
        'closed/tangent,True,,,,\n'
        'gf/altsubseq[x0=1/2],True,,,,\n'
        'gf/altsubseq[x0=1/3],True,,,,\n'
        'gf/carlitz[x0=0],True,,,,\n'
        'gf/carlitz[x0=1/2],True,,,,\n'
        'gf/carlitz[x0=1/3],True,,,,\n'
        'gf/stanley[t0=1/2],True,,,,\n'
        'gf/stanley[t0=1/3],True,,,,\n'
        'grammar/altsubseq,True,,,,\n'
        'grammar/eulerian,True,,,,\n'
        'grammar/leibniz,True,,,,\n'
        'grammar/peaks,True,,,,\n'
        'grammar/runs,True,,,,\n'
        'oracle/triangles,True,,,,\n'
        'poly/convolutions,True,,,,\n'
        'poly/recurrences,True,,,,\n'
    ),
}


#: stdout of ``grammar --builtin NAME --word WORD --n 2`` in plain, JSON and
#: CSV, for exponents at and far past the width of a machine word: the
#: exponent field width is internal, so none of it may show in the output.
GRAMMAR_WIDE = {
    ("main", "x^99999999999999999999"): (
        "99999999999999999999*x^99999999999999999999*y*z + "
        "9999999999999999999800000000000000000001*x^99999999999999999999*y^2\n",
        '[{"coeff":"99999999999999999999","mono":{"x":99999999999999999999,"y":1,"z":1}},'
        '{"coeff":"9999999999999999999800000000000000000001",'
        '"mono":{"x":99999999999999999999,"y":2}}]\n',
        "coeff,x,y,z\n"
        "99999999999999999999,99999999999999999999,1,1\n"
        "9999999999999999999800000000000000000001,99999999999999999999,2,0\n",
    ),
    # y^65535 * z^65536 straddles a 16-bit field
    ("peaks", "y^65535*z^65536"): (
        "4294836225*y^65535*z^65538 + 8590000127*y^65537*z^65536 + "
        "4294901760*y^65539*z^65534\n",
        '[{"coeff":"4294836225","mono":{"y":65535,"z":65538}},'
        '{"coeff":"8590000127","mono":{"y":65537,"z":65536}},'
        '{"coeff":"4294901760","mono":{"y":65539,"z":65534}}]\n',
        "coeff,y,z\n"
        "4294836225,65535,65538\n"
        "8590000127,65537,65536\n"
        "4294901760,65539,65534\n",
    ),
    # z^(2^32 - 1): the first derivative already carries z^(2^32)
    ("main", "x*z^4294967295"): (
        "x*y*z^4294967296 + 8589934591*x*y^2*z^4294967295 + "
        "8589934590*x*y^3*z^4294967294 + 18446744060824649730*x*y^4*z^4294967293\n",
        '[{"coeff":"1","mono":{"x":1,"y":1,"z":4294967296}},'
        '{"coeff":"8589934591","mono":{"x":1,"y":2,"z":4294967295}},'
        '{"coeff":"8589934590","mono":{"x":1,"y":3,"z":4294967294}},'
        '{"coeff":"18446744060824649730","mono":{"x":1,"y":4,"z":4294967293}}]\n',
        "coeff,x,y,z\n"
        "1,1,1,4294967296\n"
        "8589934591,1,2,4294967295\n"
        "8589934590,1,3,4294967294\n"
        "18446744060824649730,1,4,4294967293\n",
    ),
}


#: stdout of ``triangle NAME 4`` in plain, JSON and CSV: plain drops each
#: row's leading zeros, JSON and CSV keep them.
TRIANGLE_4 = {
    "runs": (
        "1\n2\n2 4\n2 12 10\n",
        '{"n":1,"coeffs":["1"]}\n'
        '{"n":2,"coeffs":["0","2"]}\n'
        '{"n":3,"coeffs":["0","2","4"]}\n'
        '{"n":4,"coeffs":["0","2","12","10"]}\n',
        "n,k,value\n1,0,1\n2,0,0\n2,1,2\n3,0,0\n3,1,2\n3,2,4\n"
        "4,0,0\n4,1,2\n4,2,12\n4,3,10\n",
    ),
    "altsubseq": (
        "1\n1\n1 1\n1 3 2\n1 7 11 5\n",
        '{"n":0,"coeffs":["1"]}\n'
        '{"n":1,"coeffs":["0","1"]}\n'
        '{"n":2,"coeffs":["0","1","1"]}\n'
        '{"n":3,"coeffs":["0","1","3","2"]}\n'
        '{"n":4,"coeffs":["0","1","7","11","5"]}\n',
        "n,k,value\n0,0,1\n1,0,0\n1,1,1\n2,0,0\n2,1,1\n2,2,1\n"
        "3,0,0\n3,1,1\n3,2,3\n3,3,2\n4,0,0\n4,1,1\n4,2,7\n4,3,11\n4,4,5\n",
    ),
    "peaks": (
        "1\n2\n4 2\n8 16\n",
        '{"n":1,"coeffs":["1"]}\n'
        '{"n":2,"coeffs":["2"]}\n'
        '{"n":3,"coeffs":["4","2"]}\n'
        '{"n":4,"coeffs":["8","16"]}\n',
        "n,k,value\n1,0,1\n2,0,2\n3,0,4\n3,1,2\n4,0,8\n4,1,16\n",
    ),
    "leftpeaks": (
        "1\n1\n1 1\n1 5\n1 18 5\n",
        '{"n":0,"coeffs":["1"]}\n'
        '{"n":1,"coeffs":["1"]}\n'
        '{"n":2,"coeffs":["1","1"]}\n'
        '{"n":3,"coeffs":["1","5"]}\n'
        '{"n":4,"coeffs":["1","18","5"]}\n',
        "n,k,value\n0,0,1\n1,0,1\n2,0,1\n2,1,1\n3,0,1\n3,1,5\n"
        "4,0,1\n4,1,18\n4,2,5\n",
    ),
    "euler": (
        "1\n1 1\n1 4 1\n1 11 11 1\n",
        '{"n":1,"coeffs":["1"]}\n'
        '{"n":2,"coeffs":["1","1"]}\n'
        '{"n":3,"coeffs":["1","4","1"]}\n'
        '{"n":4,"coeffs":["1","11","11","1"]}\n',
        "n,k,value\n1,0,1\n2,0,1\n2,1,1\n3,0,1\n3,1,4\n3,2,1\n"
        "4,0,1\n4,1,11\n4,2,11\n4,3,1\n",
    ),
}


#: stdout of ``oracle STAT 4`` in plain, JSON and CSV.
ORACLE_4 = {
    "runs": (
        "{1:2, 2:12, 3:10}\n",
        '{"stat":"runs","n":4,"counts":{"1":"2","2":"12","3":"10"}}\n',
        "k,count\n1,2\n2,12\n3,10\n",
    ),
    "peaks": (
        "{0:8, 1:16}\n",
        '{"stat":"peaks","n":4,"counts":{"0":"8","1":"16"}}\n',
        "k,count\n0,8\n1,16\n",
    ),
    "leftpeaks": (
        "{0:1, 1:18, 2:5}\n",
        '{"stat":"leftpeaks","n":4,"counts":{"0":"1","1":"18","2":"5"}}\n',
        "k,count\n0,1\n1,18\n2,5\n",
    ),
    "altsubseq": (
        "{1:1, 2:7, 3:11, 4:5}\n",
        '{"stat":"altsubseq","n":4,"counts":{"1":"1","2":"7","3":"11","4":"5"}}\n',
        "k,count\n1,1\n2,7\n3,11\n4,5\n",
    ),
    "descents": (
        "{0:1, 1:11, 2:11, 3:1}\n",
        '{"stat":"descents","n":4,"counts":{"0":"1","1":"11","2":"11","3":"1"}}\n',
        "k,count\n0,1\n1,11\n2,11\n3,1\n",
    ),
}


#: stdout of ``verify grammar --n-max 6`` in plain, JSON and CSV with R(5,2)
#: one too large: one failing report among passing ones, each format
#: carrying its counterexample, whose sides runs-R52's entry pins.
*_, _R4_TRUE, _R4_CORRUPT = faults.FAULTS["runs-R52"][4]["grammar/runs"]
VERIFY_GRAMMAR_FAULT = {
    "plain": (
        "PASS grammar/altsubseq (n_max=6)\n"
        "PASS grammar/eulerian (n_max=6, oracle_n_max=6)\n"
        "PASS grammar/leibniz (n_max=6, cases=100, seed=20240801)\n"
        "PASS grammar/peaks (n_max=6, oracle_n_max=6)\n"
        "FAIL grammar/runs (n_max=6)\n"
        "  counterexample: n=4, point=derivative of x^2\n"
        f"    lhs = {_R4_TRUE}\n"
        f"    rhs = {_R4_CORRUPT}\n"
        "4/5 checks passed\n"
    ),
    "json": (
        '{"identity":"grammar/altsubseq","params":{"n_max":6}'
        ',"passed":true,"first_failure":null}\n'
        '{"identity":"grammar/eulerian","params":{"n_max":6,"oracle_n_max":6}'
        ',"passed":true,"first_failure":null}\n'
        '{"identity":"grammar/leibniz","params":{"n_max":6,"cases":100,"seed":20240801}'
        ',"passed":true,"first_failure":null}\n'
        '{"identity":"grammar/peaks","params":{"n_max":6,"oracle_n_max":6}'
        ',"passed":true,"first_failure":null}\n'
        '{"identity":"grammar/runs","params":{"n_max":6},"passed":false,'
        '"first_failure":{"n":4,"point":"derivative of x^2",'
        f'"lhs":"{_R4_TRUE}","rhs":"{_R4_CORRUPT}"}}}}\n'
    ),
    "csv": (
        "identity,passed,n,point,lhs,rhs\n"
        "grammar/altsubseq,True,,,,\n"
        "grammar/eulerian,True,,,,\n"
        "grammar/leibniz,True,,,,\n"
        "grammar/peaks,True,,,,\n"
        f"grammar/runs,False,4,derivative of x^2,{_R4_TRUE},{_R4_CORRUPT}\n"
    ),
}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTriangleCommand:
    def test_runs_rows(self, capsys):
        code, out, _ = run(capsys, "triangle", "runs", "5")
        assert code == 0
        assert out.splitlines() == ["1", "2", "2 4", "2 12 10", "2 28 58 32"]

    def test_euler_first_row(self, capsys):
        code, out, _ = run(capsys, "triangle", "euler", "1")
        assert code == 0
        assert out == "1\n"

    def test_peaks_json_contains_documented_row(self, capsys):
        code, out, _ = run(capsys, "triangle", "peaks", "3", "--format=json")
        assert code == 0
        assert '{"n":3,"coeffs":["4","2"]}' in out.splitlines()
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["n"] for r in rows] == [1, 2, 3]

    def test_altsubseq_starts_at_zero(self, capsys):
        code, out, _ = run(capsys, "triangle", "altsubseq", "2")
        assert out.splitlines() == ["1", "1", "1 1"]

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "triangle", "peaks", "3", "--format=csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "k", "value"]
        assert ["3", "0", "4"] in rows and ["3", "1", "2"] in rows

    @pytest.mark.parametrize("name", sorted(TRIANGLE_4))
    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_rows_are_pinned(self, capsys, name, fmt):
        code, out, err = run(capsys, "triangle", name, "4", "--format", fmt)
        assert (code, err) == (0, "")
        assert out == TRIANGLE_4[name][cli.FORMATS.index(fmt)]

    def test_bad_name_exits_2(self, capsys):
        code, _, _ = run(capsys, "triangle", "nope", "3")
        assert code == 2

    def test_bad_range_exits_2(self, capsys):
        code, _, err = run(capsys, "triangle", "runs", "0")
        assert code == 2
        assert "n_max" in err


class TestOracleCommand:
    def test_runs_histogram(self, capsys):
        code, out, _ = run(capsys, "oracle", "runs", "4")
        assert code == 0
        assert out == "{1:2, 2:12, 3:10}\n"

    def test_leftpeaks_histogram(self, capsys):
        code, out, _ = run(capsys, "oracle", "leftpeaks", "2")
        assert out == "{0:1, 1:1}\n"

    def test_altsubseq_histogram(self, capsys):
        code, out, _ = run(capsys, "oracle", "altsubseq", "1")
        assert out == "{1:1}\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "oracle", "runs", "4", "--format=json")
        assert json.loads(out) == {
            "stat": "runs",
            "n": 4,
            "counts": {"1": "2", "2": "12", "3": "10"},
        }

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "oracle", "peaks", "3", "--format=csv")
        assert out.splitlines() == ["k,count", "0,4", "1,2"]

    def test_eulerian_row_above_the_old_ceiling(self, capsys):
        code, out, _ = run(capsys, "oracle", "descents", "12")
        assert code == 0
        assert out == (
            "{0:1, 1:4083, 2:478271, 3:10187685, 4:66318474, 5:162512286, "
            "6:162512286, 7:66318474, 8:10187685, 9:478271, 10:4083, 11:1}\n"
        )

    @pytest.mark.parametrize("stat", sorted(ORACLE_4))
    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_histograms_are_pinned(self, capsys, stat, fmt):
        code, out, err = run(capsys, "oracle", stat, "4", "--format", fmt)
        assert (code, err) == (0, "")
        assert out == ORACLE_4[stat][cli.FORMATS.index(fmt)]

    def test_range_guard_exits_2(self, capsys):
        code, _, err = run(capsys, "oracle", "runs", "15")
        assert code == 2 and "between 1 and 14" in err

    @pytest.mark.parametrize("stat", cli.ORACLE_STATS)
    def test_histograms_equal_the_triangle_rows(self, capsys, stat):
        # descents are counted by the euler triangle; every other
        # statistic's triangle has its name
        name = "euler" if stat == "descents" else stat
        code, out, err = run(capsys, "triangle", name, "10", "--format", "json")
        assert (code, err) == (0, "")
        rows = {obj["n"]: obj["coeffs"] for obj in map(json.loads, out.splitlines())}
        for n in range(1, 11):
            code, out, err = run(capsys, "oracle", stat, str(n), "--format", "json")
            assert (code, err) == (0, "")
            assert json.loads(out) == {
                "stat": stat,
                "n": n,
                "counts": {str(k): c for k, c in enumerate(rows[n]) if c != "0"},
            }, (stat, n)


class TestGrammarCommand:
    @pytest.mark.parametrize("name, seed", sorted(GRAMMAR_N8))
    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_builtin_expansions_are_pinned(self, capsys, name, seed, fmt):
        code, out, _ = run(capsys, "grammar", "--builtin", name, "--word", seed,
                           "--n", "8", "--format", fmt)
        assert code == 0
        assert out == GRAMMAR_N8[name, seed][cli.FORMATS.index(fmt)]

    @pytest.mark.parametrize("name, word", sorted(GRAMMAR_WIDE))
    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_wide_exponents_are_pinned(self, capsys, name, word, fmt):
        code, out, err = run(capsys, "grammar", "--builtin", name, "--word", word,
                             "--n", "2", "--format", fmt)
        assert (code, err) == (0, "")
        assert out == GRAMMAR_WIDE[name, word][cli.FORMATS.index(fmt)]

    def test_main_expansion(self, capsys):
        code, out, _ = run(
            capsys, "grammar", "--builtin", "main", "--word", "x^2", "--n", "2"
        )
        assert code == 0
        assert out == "2*x^2*y*z + 4*x^2*y^2\n"

    def test_zeroth_derivative(self, capsys):
        code, out, _ = run(
            capsys, "grammar", "--builtin", "main", "--word", "x", "--n", "0"
        )
        assert out == "x\n"

    def test_dumont_expansion(self, capsys):
        code, out, _ = run(
            capsys, "grammar", "--builtin", "dumont", "--word", "x", "--n", "2"
        )
        assert out == "x*y^2 + x^2*y\n"

    def test_spec_source(self, capsys):
        code, out, _ = run(
            capsys, "grammar", "--spec", "a -> a^2", "--word", "a", "--n", "2"
        )
        assert code == 0 and out == "2*a^3\n"

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "grammar", "--builtin", "main", "--word", "x^2", "--n", "2",
            "--format=json",
        )
        assert json.loads(out) == [
            {"coeff": "2", "mono": {"x": 2, "y": 1, "z": 1}},
            {"coeff": "4", "mono": {"x": 2, "y": 2}},
        ]

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "grammar", "--builtin", "main", "--word", "x^2", "--n", "2",
            "--format=csv",
        )
        assert out.splitlines() == ["coeff,x,y,z", "2,2,1,1", "4,2,2,0"]

    def test_parse_error_exits_2_with_position(self, capsys):
        code, _, err = run(capsys, "grammar", "--spec", "x -> x*%", "--word", "x")
        assert code == 2
        assert "position 7" in err

    def test_non_decimal_digit_exits_2_with_position(self, capsys):
        code, out, err = run(capsys, "grammar", "--builtin", "main", "--word", "x^²")
        assert code == 2 and out == ""
        assert err.endswith("error: unknown character '²' (at position 2)\n")

    def test_unknown_letter_exits_2(self, capsys):
        code, _, err = run(
            capsys, "grammar", "--builtin", "dumont", "--word", "z"
        )
        assert code == 2 and "no rule" in err

    def test_word_must_be_single_term(self, capsys):
        code, _, err = run(
            capsys, "grammar", "--builtin", "main", "--word", "x + y"
        )
        assert code == 2


class TestVerifyCommand:
    @pytest.mark.parametrize("fmt", sorted(VERIFY_ALL))
    def test_verify_all_output_is_pinned(self, capsys, fmt):
        code, out, _ = run(capsys, "verify", "all", f"--format={fmt}")
        assert code == 0
        assert out == VERIFY_ALL[fmt]

    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "grammar", "--n-max", "5")
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1] == "5/5 checks passed"

    def test_gf_point_overrides(self, capsys):
        code, out, _ = run(
            capsys, "verify", "gf", "--x0", "1/4", "--t0", "1/4", "--order", "6"
        )
        assert code == 0
        assert "gf/carlitz[x0=1/4]" in out
        assert "gf/stanley[t0=1/4]" in out
        assert out.splitlines()[-1] == "3/3 checks passed"

    def test_negative_fraction_after_a_space(self, capsys):
        # argparse reads "-1/2" as an option unless it is joined with "="
        spaced = run(capsys, "verify", "gf", "--x0", "-1/2", "--t0", "-1/3",
                     "--order", "6")
        joined = run(capsys, "verify", "gf", "--x0=-1/2", "--t0=-1/3",
                     "--order", "6")
        assert spaced == joined
        code, out, _ = spaced
        assert code == 0
        assert "gf/carlitz[x0=-1/2]" in out
        assert "gf/stanley[t0=-1/3]" in out

    def test_json_reports(self, capsys):
        code, out, _ = run(
            capsys, "verify", "oracle", "--n-max", "4", "--format=json"
        )
        assert code == 0
        report = json.loads(out.splitlines()[0])
        assert set(report) == {"identity", "params", "passed", "first_failure"}
        assert report["passed"] is True

    def test_csv_reports(self, capsys):
        code, out, _ = run(
            capsys, "verify", "convolutions", "--n-max", "4", "--format=csv"
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["identity", "passed", "n", "point", "lhs", "rhs"]
        assert len(rows) == 3

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "verify", "closed-forms", "--n-max", "4")
        _, second, _ = run(capsys, "verify", "closed-forms", "--n-max", "4")
        assert first == second

    def test_points_option_exits_2(self, capsys, monkeypatch):
        # each pointwise check takes the count its degree bound needs at
        # --n-max; a count of the caller's own is a usage error
        monkeypatch.setattr(cli.identities, "run_suite", lambda *a, **k: pytest.fail("ran"))
        code, out, err = run(capsys, "verify", "closed-forms", "--points", "40")
        assert code == 2
        assert out == ""
        assert err.endswith("error: unrecognized arguments: --points 40\n")

    def test_oracle_suite_runs_to_the_requested_bound(self, capsys):
        code, out, _ = run(capsys, "verify", "oracle", "--n-max", "9")
        assert code == 0
        assert out.splitlines()[0] == "PASS oracle/triangles (n_max=9)"

    def test_oracle_suite_runs_to_the_enumeration_bound(self, capsys):
        code, out, _ = run(capsys, "verify", "oracle", "--n-max", "14")
        assert code == 0
        assert out.splitlines()[0] == "PASS oracle/triangles (n_max=14)"

    def test_oracle_bound_beyond_enumeration_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "oracle", "--n-max", "15")
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1] == "error: n_max must be between 1 and 14, got 15"
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (("grammar", "--order", "0"), "order must be >= 1"),
        (("oracle", "--order", "-3"), "order must be >= 1"),
        (("grammar", "--x0", "5"), "base point 5 must lie in (-1, 1)"),
        (("convolutions", "--t0", "2"), "base point 2 must lie in (-1, 1)"),
        (("gf", "--n-max", "0"), "n_max must be >= 1, got 0"),
        (("gf", "--n-max", "-5"), "n_max must be >= 1, got -5"),
        (("oracle", "--n-max", "0"), "n_max must be >= 1, got 0"),
        # the base points are validated before check_oracle reads its bound
        (("oracle", "--n-max", "15", "--order", "0"), "order must be >= 1"),
    ], ids=["grammar-order", "oracle-order", "grammar-x0",
            "convolutions-t0", "gf-n-max-0", "gf-n-max-negative", "oracle-n-max-0",
            "oracle-n-max-15-order-0"])
    def test_options_the_suite_does_not_read_are_still_validated(self, capsys, argv,
                                                                 message):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err.endswith(f"error: {message}\n") and "Traceback" not in err

    @pytest.mark.parametrize("suite", ["all", "closed-forms"])
    def test_range_with_nothing_to_compare_exits_2(self, capsys, suite):
        # the closed forms in R_n start at n = 2, so --n-max 1 compares
        # nothing there; no report is printed, not even the passing ones
        code, out, err = run(capsys, "verify", suite, "--n-max", "1")
        assert code == 2
        assert out == ""
        assert err.endswith(
            "error: closed/alt-from-runs (n_max=1) has no case to compare\n")
        assert "Traceback" not in err

    def test_grammar_suite_at_n_max_1_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "grammar", "--n-max", "1")
        assert code == 0
        assert out.splitlines()[-1] == "5/5 checks passed"

    def test_unknown_suite_exits_2(self, capsys):
        code, _, _ = run(capsys, "verify", "everything")
        assert code == 2

    def test_fault_injection_fails_with_counterexample(self, capsys, monkeypatch):
        faults.install("runs-R52", monkeypatch.setattr)
        for fmt in cli.FORMATS:
            code, out, err = run(capsys, "verify", "grammar", "--n-max", "6",
                                 "--format", fmt)
            assert (code, err) == (1, "")
            assert out == VERIFY_GRAMMAR_FAULT[fmt]

    def test_consistency_error_exits_1_without_traceback(self, capsys, monkeypatch):
        def broken(n_max):
            raise triangles.ConsistencyError("row 2 contradicts its seed")

        monkeypatch.setitem(cli.TRIANGLE_BUILDERS, "runs", broken)
        code, out, err = run(capsys, "triangle", "runs", "3")
        assert code == 1
        assert out == ""
        assert err == "error: row 2 contradicts its seed\n"

    def test_fault_injection_oracle_suite(self, capsys, monkeypatch):
        faults.install("leftpeaks-Wt31", monkeypatch.setattr)
        code, out, _ = run(capsys, "verify", "oracle")
        assert code == 1
        assert "FAIL oracle/triangles" in out and "leftpeaks" in out


class TestEnvironmentCeiling:
    def test_ceiling_rejects_large_requests(self, capsys, monkeypatch):
        monkeypatch.setenv("RUNLAB_MAX_N", "4")
        code, _, err = run(capsys, "triangle", "runs", "9")
        assert code == 2 and "RUNLAB_MAX_N" in err
        code, _, _ = run(capsys, "triangle", "runs", "4")
        assert code == 0
        code, _, err = run(capsys, "verify", "oracle", "--n-max", "9")
        assert code == 2

    def test_bad_ceiling_value(self, capsys, monkeypatch):
        monkeypatch.setenv("RUNLAB_MAX_N", "lots")
        code, _, err = run(capsys, "triangle", "runs", "3")
        assert code == 2 and "RUNLAB_MAX_N" in err

    @pytest.mark.parametrize("argv, message", [
        (("triangle", "runs", "5"), "n_max 5 exceeds RUNLAB_MAX_N=4"),
        (("oracle", "runs", "5"), "n 5 exceeds RUNLAB_MAX_N=4"),
        (("grammar", "--builtin", "main", "--word", "x", "--n", "5"),
         "n 5 exceeds RUNLAB_MAX_N=4"),
        (("verify", "gf", "--order", "5"), "order 5 exceeds RUNLAB_MAX_N=4"),
        # n_max is checked before order, and before the suite validates it
        (("verify", "gf", "--n-max", "0", "--order", "5"), "order 5 exceeds RUNLAB_MAX_N=4"),
        (("verify", "gf", "--n-max", "5", "--order", "6"), "n_max 5 exceeds RUNLAB_MAX_N=4"),
    ], ids=["triangle", "oracle", "grammar", "verify-order", "verify-before-suite-checks",
            "verify-n-max-before-order"])
    def test_ceiling_names_the_argument(self, capsys, monkeypatch, argv, message):
        monkeypatch.setenv("RUNLAB_MAX_N", "4")
        monkeypatch.setattr(cli.identities, "run_suite", lambda *a, **k: pytest.fail("ran"))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: {message}\n")

    def test_bad_ceiling_value_refuses_verify_without_n_arguments(self, capsys,
                                                                   monkeypatch):
        # the ceiling is read before any command runs, not only when an
        # n-like argument is there to compare with it
        monkeypatch.setenv("RUNLAB_MAX_N", "lots")
        monkeypatch.setattr(cli.identities, "run_suite", lambda *a, **k: pytest.fail("ran"))
        code, out, err = run(capsys, "verify", "all")
        assert (code, out) == (2, "")
        assert err.endswith("error: RUNLAB_MAX_N must be an integer, got 'lots'\n")


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "runlab", "oracle", "runs", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "{1:2, 2:4}\n"

    def test_cold_import_skips_dataclasses_and_format_modules(self):
        # dataclasses pulls in inspect and copy, and the default plain
        # format needs neither json nor csv: a fresh import loads none
        code = ("import sys; before = set(sys.modules); import runlab.cli; "
                "print(*sorted(set(sys.modules) - before))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, check=True)
        loaded = set(proc.stdout.split())
        assert "runlab.cli" in loaded
        assert loaded.isdisjoint({"dataclasses", "inspect", "copy", "json", "csv"})
        for path in Path(cli.__file__).parent.glob("*.py"):
            assert not re.search(r"^\s*(from|import)\s+dataclasses\b",
                                 path.read_text(), re.M), path.name

    def test_closed_stdout_exits_1_without_traceback(self):
        # the rows run far past the pipe's buffer, so writing them must
        # fail once the reader has gone
        proc = subprocess.Popen(
            [sys.executable, "-m", "runlab", "triangle", "runs", "120"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"1\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err

    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_nonpositive_points_exit_2_at_once(self, points):
        # the sample-point count follows from --n-max, so there is no
        # --points option to search with; the timeout and the address-space
        # cap would turn a hang into a failure
        def cap_memory():
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "runlab", "verify", "closed-forms", "--points", points],
            capture_output=True,
            text=True,
            timeout=30,
            preexec_fn=cap_memory,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert f"error: unrecognized arguments: --points {points}\n" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        capsys.readouterr()
