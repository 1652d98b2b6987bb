"""End-to-end command coverage through main(argv)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from gainforge.cli import _build_parser, _search_config, main
from gainforge.constructions import catalog, catalog_entry
from gainforge.fileio import parse_gaingraph, parse_lines, serialize_gaingraph, serialize_lines
from gainforge.gains import Gain, build
from gainforge.lines import geometry_lines
from gainforge.search import SearchConfig
from gainforge.spectral import certify_two_ev, eigenvalues


def write_graph(tmp_path, g, name="g.gg"):
    path = tmp_path / name
    path.write_text(serialize_gaingraph(g))
    return str(path)


def c4_path(tmp_path):
    one = Gain.exact(0, 1)
    return write_graph(tmp_path, build(4, [(0, 1, one), (1, 2, one),
                                           (2, 3, one), (3, 0, one)]))


# -- construct -------------------------------------------------------------------

def test_construct_writes_a_parseable_graph(tmp_path, capsys):
    out = tmp_path / "k4.gg"
    assert main(["construct", "K4", "-o", str(out)]) == 0
    g = parse_gaingraph(out.read_text())
    assert g.n == 4 and len(list(g.edges())) == 6


def test_construct_with_parameters(tmp_path):
    out = tmp_path / "t6.gg"
    assert main(["construct", "T6", "--param", "x=rot:1/8", "-o", str(out)]) == 0
    g = parse_gaingraph(out.read_text())
    assert certify_two_ev(g).theta1 == pytest.approx(2.0)


def test_construct_numeric_parameter(tmp_path):
    out = tmp_path / "t6n.gg"
    assert main(["construct", "T6", "--param", "x=num:0.6,0.8",
                 "-o", str(out)]) == 0
    g = parse_gaingraph(out.read_text())
    assert certify_two_ev(g) is not None


def test_construct_unknown_name_is_a_usage_error(capsys):
    assert main(["construct", "K99"]) == 2
    assert "error" in capsys.readouterr().err


def test_construct_bad_parameter_syntax(capsys):
    assert main(["construct", "T6", "--param", "x=1/8"]) == 2


@pytest.mark.parametrize("value", ["nan,0", "0,nan"])
def test_construct_rejects_a_nan_parameter(value, tmp_path, capsys):
    out = tmp_path / "t6.gg"
    assert main(["construct", "T6", "--param", f"x=num:{value}", "-o", str(out)]) == 2
    assert "modulus" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name,param", [("K8star", "x"), ("T6", "y")])
def test_construct_rejects_a_parameter_the_entry_does_not_take(name, param, capsys):
    assert main(["construct", name, "--param", f"{param}=rot:1/8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"no parameter {param}" in captured.err


# -- verify / spectrum -------------------------------------------------------------

def test_verify_pass_line_format(tmp_path, capsys):
    path = write_graph(tmp_path, catalog_entry("W4").build())
    assert main(["verify", path]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("TWO-EV theta1=")
    fields = dict(tok.split("=") for tok in line.split()[1:])
    assert float(fields["theta1"]) == pytest.approx(math.sqrt(3))
    assert float(fields["theta2"]) == pytest.approx(-math.sqrt(3))
    assert fields["m"] == "2"
    assert float(fields["residual"]) < 1e-9


@pytest.mark.parametrize("command", ["verify", "spectrum"])
def test_a_nan_gain_in_a_file_is_rejected_as_non_unit(command, tmp_path, capsys):
    path = tmp_path / "nan.gg"
    path.write_text("gaingraph v1\nn 3\ne 0 1 num nan 0\ne 0 2 rot 0/1\ne 1 2 rot 0/1\n")
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "|z| = nan is not 1" in captured.err


def test_verify_fail_line_and_exit_code(tmp_path, capsys):
    assert main(["verify", c4_path(tmp_path)]) == 4
    assert capsys.readouterr().out.strip() == "NOT-TWO-EV clusters=3"


def test_spectrum_lists_values_then_clusters(tmp_path, capsys):
    path = write_graph(tmp_path, catalog_entry("K4").build())
    assert main(["spectrum", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 4 + 1 + 2      # eigenvalues, header, two clusters
    assert out[4] == "clusters:"
    top = out[5].split()
    bottom = out[6].split()
    assert (float(top[0]), int(top[1])) == (pytest.approx(3.0), 1)
    assert (float(bottom[0]), int(bottom[1])) == (pytest.approx(-1.0), 3)
    # thin shell: values agree with the library call
    g = parse_gaingraph(open(path).read())
    lib = eigenvalues(g).eigenvalues
    assert np.allclose([float(v) for v in out[:4]], lib)


# -- catalog ----------------------------------------------------------------------

def test_catalog_list_mentions_every_entry(capsys):
    assert main(["catalog", "--list"]) == 0
    out = capsys.readouterr().out
    for entry in catalog():
        assert entry.name in out


def test_catalog_list_and_verify_all_exclude_each_other(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "--list", "--verify-all"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_catalog_verify_only_degree4(capsys):
    assert main(["catalog", "--verify-all", "--only", "degree4"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0] == "name,order,k,m,theta1,theta2,residual,status"
    assert len(rows) == 1 + 8
    assert all(row.endswith("PASS") for row in rows[1:])


# -- equiv / iso ------------------------------------------------------------------

def test_equiv_reports_a_witness(tmp_path, capsys):
    from gainforge.gains import switch
    g = catalog_entry("IG(W2)").build()
    d = [Gain.exact(0, 1), Gain.exact(1, 4), Gain.exact(1, 2), Gain.exact(3, 4)]
    h = switch(g, d)
    code = main(["equiv", write_graph(tmp_path, g, "a.gg"),
                 write_graph(tmp_path, h, "b.gg")])
    out = capsys.readouterr().out.splitlines()
    assert code == 0 and out[0] == "EQUIVALENT"
    assert out[1].startswith("perm 0 1 2 3")
    assert out[3] == "conjugated false"


def test_iso_distinguishes_supports(tmp_path, capsys):
    one = Gain.exact(0, 1)
    path4 = build(4, [(0, 1, one), (1, 2, one), (2, 3, one)])
    star4 = build(4, [(0, 1, one), (0, 2, one), (0, 3, one)])
    code = main(["iso", write_graph(tmp_path, path4, "p.gg"),
                 write_graph(tmp_path, star4, "s.gg")])
    assert code == 4
    assert capsys.readouterr().out.strip() == "NOT-ISOMORPHIC"


def test_iso_finds_a_relabeling(tmp_path, capsys):
    from gainforge.gains import relabel
    g = catalog_entry("T6").build(x=Gain.exact(1, 5))
    h = relabel(g, [2, 0, 1, 4, 5, 3])
    code = main(["iso", write_graph(tmp_path, g, "a.gg"),
                 write_graph(tmp_path, h, "b.gg")])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "ISOMORPHIC"


# -- lines ------------------------------------------------------------------------

def test_lines_export_then_import_round_trip(tmp_path, capsys):
    g = catalog_entry("SIC3").build()
    gpath = write_graph(tmp_path, g)
    lpath = tmp_path / "sic3.lines"
    assert main(["lines", "export", gpath, "-o", str(lpath)]) == 0
    system = parse_lines(lpath.read_text())
    assert (system.dim, system.count) == (3, 9)
    back = tmp_path / "back.gg"
    assert main(["lines", "import", str(lpath), "--alpha", "0.5",
                 "-o", str(back)]) == 0
    h = parse_gaingraph(back.read_text())
    assert np.allclose(h.matrix(), g.matrix(), atol=1e-8)


def test_lines_import_requires_alpha(tmp_path, capsys):
    lpath = tmp_path / "s.lines"
    lpath.write_text(serialize_lines(geometry_lines("SIC2")))
    assert main(["lines", "import", str(lpath)]) == 2
    assert "--alpha" in capsys.readouterr().err


def test_lines_check_on_a_tight_system(tmp_path, capsys):
    lpath = tmp_path / "mub.lines"
    lpath.write_text(serialize_lines(geometry_lines("MUB_C3", t=4)))
    assert main(["lines", "check", str(lpath)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "dim 3 count 12"
    assert out[1].startswith("tight true z=4")
    assert out[2].startswith("angles A2")


def test_lines_check_flags_a_loose_system(tmp_path, capsys):
    s3, s6 = math.sqrt(3), math.sqrt(6)
    cols = np.array([
        [1.0, 0.5, 0.0, 0.5],
        [0.0, s3 / 2, s3 / 3, -s3 / 6],
        [0.0, 0.0, s6 / 3, s6 / 3],
    ])
    from gainforge.lines import LineSystem
    lpath = tmp_path / "loose.lines"
    lpath.write_text(serialize_lines(LineSystem(cols)))
    assert main(["lines", "check", str(lpath)]) == 4
    assert "tight false" in capsys.readouterr().out


def test_lines_check_rejects_a_nan_column(tmp_path, capsys):
    lpath = tmp_path / "nan.lines"
    lpath.write_text("lines v1\ndim 2\ncount 2\nv 0 1 0 0 0\nv 1 nan 0 0 0\n")
    assert main(["lines", "check", str(lpath)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "column 1 has norm nan" in captured.err


# -- dismantle ---------------------------------------------------------------------

def test_dismantle_with_an_explicit_partition(tmp_path, capsys):
    lpath = tmp_path / "mub.lines"
    lpath.write_text(serialize_lines(geometry_lines("MUB_C3", t=4)))
    assert main(["dismantle", str(lpath), "--partition", "0-2;3-5;6-8;9-11"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert sum(1 for line in out if line.startswith("part")) == 4
    finals = [line for line in out if line.startswith("union 4 ")]
    assert len(finals) == 1 and "m=3" in finals[0]


def test_dismantle_find_mode(tmp_path, capsys):
    lpath = tmp_path / "mub.lines"
    lpath.write_text(serialize_lines(geometry_lines("MUB_C3", t=3)))
    assert main(["dismantle", str(lpath), "--find"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("partition ")
    assert len(out[0].split(";")) == 3


# -- search -----------------------------------------------------------------------

def test_search_converges_and_writes_artifacts(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    out = tmp_path / "found.gg"
    code = main(["search", "--underlying", c4_path(tmp_path),
                 "--t0", "1", "--alpha", "0.9", "--iters", "500",
                 "--seed", "1", "--trace", str(trace), "-o", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("Converged best_f=")
    assert "seed=1" in stdout.splitlines()[0]
    # the local solve converged, so nothing was annealed
    assert trace.read_text().splitlines() == ["temperature,best_f"]
    g = parse_gaingraph(out.read_text())
    assert certify_two_ev(g).theta1 == pytest.approx(math.sqrt(2), abs=1e-9)


def test_search_seed_falls_back_to_the_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GAINFORGE_SEED", "17")
    code = main(["search", "--underlying", c4_path(tmp_path),
                 "--t0", "1", "--alpha", "0.9", "--iters", "500"])
    assert code == 0
    assert "seed=17" in capsys.readouterr().out


def test_search_flag_defaults_are_the_config_defaults():
    args = _build_parser().parse_args(["search", "--underlying", "f.gg", "--seed", "0"])
    assert _search_config(args) == SearchConfig(seed=0)


def test_search_exhausted_exit_code(tmp_path, capsys):
    one = Gain.exact(0, 1)
    edges = [(u, v, one) for u in range(8) for v in range(u + 1, 8)
             if (v - u) % 8 not in (1, 7)]
    path = write_graph(tmp_path, build(8, edges), "c8c.gg")
    trace = tmp_path / "trace.csv"
    code = main(["search", "--underlying", path,
                 "--t0", "1", "--alpha", "0.9", "--iters", "500", "--seed", "0",
                 "--trace", str(trace)])
    assert code == 3
    assert capsys.readouterr().out.startswith("Exhausted")
    # the local solve fails, so the whole schedule is annealed: 0.9^88 <= 1e-4 < 0.9^87
    rows = trace.read_text().splitlines()
    assert rows[0] == "temperature,best_f"
    assert len(rows) == 1 + 88


# -- plumbing ---------------------------------------------------------------------

def test_missing_file_is_a_usage_error(capsys):
    assert main(["verify", "/nonexistent/file.gg"]) == 2


def test_malformed_file_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.gg"
    bad.write_text("gaingraph v7\n")
    assert main(["verify", str(bad)]) == 2
    assert "error" in capsys.readouterr().err
