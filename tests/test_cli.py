"""File format round-trips and command behaviour, including the three
documented examples pinned byte-for-byte."""

import contextlib
import functools
import io
import random
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from matroidkit.cli import ParseError, main, parse, serialize
from matroidkit.core import Matroid, is_isomorphic
from matroidkit.builders import paving8, uniform
from matroidkit.corpus import generate_corpus, prism, random_sparse_paving
from test_cap import big_wheel

WHIRL3_TEXT = """\
name whirl3
elements s1 s2 s3 r1 r2 r3
bases {s1,s2,s3} {s1,s2,r2} {s1,s2,r3} {s1,s3,r1} {s1,s3,r2} {s1,r1,r2} {s1,r1,r3} {s1,r2,r3}
bases {s2,s3,r1} {s2,s3,r3} {s2,r1,r2} {s2,r1,r3} {s2,r2,r3} {s3,r1,r2} {s3,r1,r3} {s3,r2,r3}
bases {r1,r2,r3}
"""


class TestParseSerialize:
    def test_u24_literal(self):
        text = ("name U24\n"
                "elements a b c d\n"
                "bases {a,b} {a,c} {a,d} {b,c} {b,d} {c,d}\n")
        name, m = parse(text)
        assert name == "U24"
        assert is_isomorphic(m, uniform(2, 4)) is not None

    def test_nonspanning_circuits_form(self):
        text = ("name P8\n"
                "elements p1 p2 q1 q2 s1 s2 t1 t2\n"
                "rank 4\n"
                "nonspanning_circuits {t1,t2,p1,q1} {t1,t2,p2,q2} "
                "{p1,p2,q1,q2} {p1,p2,s1,s2} {q1,q2,s1,s2}\n")
        _, m = parse(text)
        assert m == paving8()

    def test_circuits_form(self):
        text = ("name tri\n"
                "elements a b c d\n"
                "circuits {a,b,c}\n")
        _, m = parse(text)
        assert m.rank == 3 and len(m.bases) == 3

    def test_comments_and_blank_lines(self):
        text = ("# a matroid\n\nname x\nelements a b\n"
                "bases {a} {b}  # both singletons\n")
        _, m = parse(text)
        assert m.rank == 1

    def test_round_trip_on_corpus(self):
        for entry in generate_corpus(0, max_n=9):
            text = serialize(entry.matroid, entry.name)
            name2, m2 = parse(text)
            assert name2 == entry.name and m2 == entry.matroid
            assert serialize(m2, name2) == text

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse("name x\nelements a b\nbases {a,q}\n")
        with pytest.raises(ParseError):
            parse("elements a b\nbases {a}\n")
        with pytest.raises(ParseError):
            parse("name x\nelements a b\nnonspanning_circuits {a,b}\n")
        with pytest.raises(ParseError):
            parse("name x\nelements a b\nwibble {a}\n")


@pytest.fixture()
def construction_files(tmp_path, capsys):
    files = {}
    for recipe, fname in (("twistedcube", "M4.mtx"),
                          ("nonfano", "F7minus.mtx"),
                          ("fano", "F7.mtx")):
        assert main(["construct", recipe]) == 0
        files[fname] = tmp_path / fname
        files[fname].write_text(capsys.readouterr().out)
    return files


class TestCommands:
    def test_construct_whirl3_bytes(self, capsys):
        assert main(["construct", "whirl 3"]) == 0
        assert capsys.readouterr().out == WHIRL3_TEXT

    def test_detachable_example_bytes(self, construction_files, capsys):
        rc = main(["detachable", str(construction_files["M4.mtx"]),
                   "--minor", str(construction_files["F7minus.mtx"]),
                   "--exchange"])
        assert rc == 0
        assert capsys.readouterr().out == "none\n"

    def test_separators_example_bytes(self, construction_files, capsys):
        rc = main(["separators", str(construction_files["M4.mtx"])])
        assert rc == 0
        assert capsys.readouterr().out == (
            "twisted-cube-like {p1,p2,q1,q2,s1,s2} "
            "p1=p1 p2=p2 q1=q1 q2=q2 s1=s1 s2=s2\n")

    def test_analyze(self, construction_files, capsys):
        rc = main(["analyze", str(construction_files["M4.mtx"])])
        out = capsys.readouterr().out
        assert rc == 0
        assert "3-connected yes" in out
        assert "elements 12 rank 5 bases 528" in out

    def test_detachable_lists_pairs(self, tmp_path, capsys):
        assert main(["construct", "uniform 3 7"]) == 0
        u37 = tmp_path / "u37.mtx"
        u37.write_text(capsys.readouterr().out)
        assert main(["construct", "uniform 3 5"]) == 0
        u35 = tmp_path / "u35.mtx"
        u35.write_text(capsys.readouterr().out)
        rc = main(["detachable", str(u37), "--minor", str(u35)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0] == "delete {a,b}"

    def test_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtx"
        bad.write_text("name x\nelements a b\nbases {a,b} {a}\n")
        rc = main(["analyze", str(bad)])
        assert rc == 2
        assert "error=" in capsys.readouterr().err

    def test_exchange_failure_is_one_error_line(self, tmp_path, capsys):
        # U(6,14) without its two last bases fails exchange only at the last
        # independent 5-set, behind 3,001 bases
        u = uniform(6, 14)
        bad = tmp_path / "u614-2.mtx"
        bad.write_text(serialize(Matroid(14, u.bases[:-2], u.labels), "bad"))
        t0 = time.perf_counter()
        rc = main(["analyze", str(bad)])
        wall = time.perf_counter() - t0
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error=AxiomViolation detail=exchange fails")
        assert wall < 2.0, f"{wall:.1f} s"

    def test_analyze_decides_self_duality_of_sparse_paving(self, tmp_path,
                                                           capsys):
        # a rank-8 sparse paving matroid on 16 elements: every pair of
        # elements has rank 2, and it is not isomorphic to its dual
        m = random_sparse_paving(random.Random(0), 16, 8)
        path = tmp_path / "sp8.mtx"
        path.write_text(serialize(m, "sp8"))
        t0 = time.perf_counter()
        rc = main(["analyze", str(path)])
        wall = time.perf_counter() - t0
        assert rc == 0
        assert "self-dual no" in capsys.readouterr().out.splitlines()
        assert wall < 2.0, f"{wall:.1f} s"

    def test_construct_extensions_of_rank_zero(self, tmp_path, capsys):
        assert main(["construct", "uniform 0 3"]) == 0
        u03 = tmp_path / "u03.mtx"
        u03.write_text(capsys.readouterr().out)
        for recipe in (f"principalext {u03} {{a,b,c}} z",
                       f"modularcutext {u03} z {{a,b,c}}"):
            assert main(["construct", recipe]) == 0
            _, m = parse(capsys.readouterr().out)
            assert m.labels == ("a", "b", "c", "z") and m.rank == 0

    def test_construct_dual_and_exchange(self, tmp_path, capsys):
        assert main(["construct", "wheel 3"]) == 0
        w = tmp_path / "w3.mtx"
        w.write_text(capsys.readouterr().out)
        assert main(["construct", f"dual {w}"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("name wheel3-dual")
        assert main(["construct", f"deltawye {w} {{s1,s2,r1}}"]) == 0
        out = capsys.readouterr().out
        assert "name wheel3-deltawye" in out

    def test_construct_exchange_at_22_elements(self, tmp_path, capsys):
        # the gluing with M(K4) once had 25 elements and exited 2 with a
        # BadParams error line
        w = tmp_path / "w11.mtx"
        w.write_text(serialize(big_wheel(11), "wheel11"))
        assert main(["construct", f"deltawye {w} {{s1,s2,r1}}"]) == 0
        name, m = parse(capsys.readouterr().out)
        assert name == "wheel11-deltawye" and (m.n, m.rank) == (22, 12)

    def test_construct_extension_recipes(self, tmp_path, capsys):
        assert main(["construct", "uniform 2 4"]) == 0
        u24 = tmp_path / "u24.mtx"
        u24.write_text(capsys.readouterr().out)
        assert main(["construct", f"paralleladd {u24} a a2"]) == 0
        out = capsys.readouterr().out
        assert "a2" in out
        assert main(["construct", f"seriesadd {u24} a s"]) == 0
        capsys.readouterr()
        assert main(["construct", "fano"]) == 0
        f7 = tmp_path / "f7.mtx"
        f7.write_text(capsys.readouterr().out)
        assert main(["construct", f"principalext {f7} {{a,b,c}} z"]) == 0
        capsys.readouterr()
        assert main(["construct",
                     f"modularcutext {f7} z {{a,b,c}}"]) == 0
        capsys.readouterr()

    def test_construct_parallel_connection(self, tmp_path, capsys):
        assert main(["construct", "paving8ext"]) == 0
        left = tmp_path / "left.mtx"
        left.write_text(capsys.readouterr().out)
        text = ("name nf\n"
                "elements t1 t2 z n1 n2 n3 n4\n"
                "rank 3\n"
                "nonspanning_circuits {t1,t2,z} {t1,n1,n2} {t1,n3,n4} "
                "{t2,n1,n3} {t2,n2,n4} {z,n1,n4}\n")
        right = tmp_path / "right.mtx"
        right.write_text(text)
        assert main(["construct",
                     f"parallelconn {left} {right} {{t1,t2,z}}"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("name paving8ext-nf")

    def test_verify_constructions_cli(self, capsys):
        rc = main(["verify", "constructions"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "check=construction-twisted" in out
        assert "check=construction-spike" in out

    def test_verify_triangles_cli(self, tmp_path, capsys):
        assert main(["construct", "uniform 2 9"]) == 0
        big = tmp_path / "u29.mtx"
        big.write_text(capsys.readouterr().out)
        assert main(["construct", "uniform 2 4"]) == 0
        small = tmp_path / "u24.mtx"
        small.write_text(capsys.readouterr().out)
        rc = main(["verify", "triangles", str(big), str(small)])
        out = capsys.readouterr().out
        assert rc == 0 and "outcome=pass" in out

    def test_verify_unknown_id(self, capsys):
        rc = main(["verify", "nonsense"])
        assert rc == 2
        assert "error=" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["construct", "uniform 3 30"],
        ["construct", "uniform a b"],
        ["construct", "paralleladd {dir}/F7.mtx zz new"],
        ["analyze", "{dir}/missing.mtx"],
        ["construct", ""],
        ["construct", "relax {dir}/F7.mtx"],
        ["construct", "deltawye {dir}/F7.mtx"],
        # usage errors: argparse's own message, as one error line
        ["analyze"],
        ["verify", "registry", "--max-n", "abc"],
        ["frobnicate"],
        # only verify takes --seed and --max-n
        ["analyze", "{dir}/F7.mtx", "--seed", "1"],
    ])
    def test_bad_input_is_one_error_line(self, argv, construction_files,
                                         tmp_path, capsys):
        rc = main([a.format(dir=tmp_path) for a in argv])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("error=")

    def test_records_format(self, construction_files, capsys):
        rc = main(["separators", str(construction_files["M4.mtx"]),
                   "--format", "records"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("kind=twisted-cube-like support=")


PRISM_ANALYZE = """\
name prism
elements 9 rank 5 bases 75
3-connected yes
self-dual no
triangles {a1,a2,a3} {b1,b2,b3}
triads {a1,a2,v1} {a1,a3,v2} {a2,a3,v3} {b1,b2,v1} {b1,b3,v2} {b2,b3,v3} \
{v1,v2,v3}
fans (v1,a2,a1,a3,v2) (v1,a1,a2,a3,v3) (v2,a1,a3,a2,v3) (v1,b2,b1,b3,v2) \
(v1,b1,b2,b3,v3) (v2,b1,b3,b2,v3) (v1,v2,v3)
flans (a1,v1,a2,a3,v3,b2,b3,b1,v2)
"""

PRISM_ANALYZE_RECORDS = """\
kind=summary name=prism n=9 rank=5 bases=75 three_connected=1 self_dual=0
kind=triangle set={a1,a2,a3}
kind=triangle set={b1,b2,b3}
kind=triad set={a1,a2,v1}
kind=triad set={a1,a3,v2}
kind=triad set={a2,a3,v3}
kind=triad set={b1,b2,v1}
kind=triad set={b1,b3,v2}
kind=triad set={b2,b3,v3}
kind=triad set={v1,v2,v3}
kind=fan order=(v1,a2,a1,a3,v2)
kind=fan order=(v1,a1,a2,a3,v3)
kind=fan order=(v2,a1,a3,a2,v3)
kind=fan order=(v1,b2,b1,b3,v2)
kind=fan order=(v1,b1,b2,b3,v3)
kind=fan order=(v2,b1,b3,b2,v3)
kind=fan order=(v1,v2,v3)
kind=flan order=(a1,v1,a2,a3,v3,b2,b3,b1,v2)
"""

U36_ANALYZE = """\
name u36
elements 6 rank 3 bases 20
3-connected yes
self-dual yes
triangles none
triads none
fans none
flans none
"""

U36_ANALYZE_RECORDS = """\
kind=summary name=u36 n=6 rank=3 bases=20 three_connected=1 self_dual=1
"""


@pytest.mark.parametrize("name, build, fmt, want", [
    ("prism", prism, "text", PRISM_ANALYZE),
    ("prism", prism, "records", PRISM_ANALYZE_RECORDS),
    ("u36", lambda: uniform(3, 6), "text", U36_ANALYZE),
    ("u36", lambda: uniform(3, 6), "records", U36_ANALYZE_RECORDS),
])
def test_analyze_bytes(name, build, fmt, want, tmp_path, capsys):
    # every line of both formats: triangles, triads, fans and flans of the
    # prism, and the four empty lists of U(3,6)
    path = tmp_path / f"{name}.mtx"
    path.write_text(serialize(build(), name))
    assert main(["analyze", str(path), "--format", fmt]) == 0
    assert capsys.readouterr().out == want


# Files of at most nine elements as `construct` writes them, the inputs that
# the mutations below start from.
CONTRACT_RECIPES = ("fano", "nonfano", "paving8", "uniform 2 5",
                    "uniform 3 6", "wheel 3", "whirl 4", "spike 3")


@functools.cache
def _constructed(recipe):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["construct", recipe]) == 0
    return out.getvalue()


@st.composite
def mutated_files(draw):
    """A `construct` output with one token dropped, duplicated or garbled,
    a label renamed, a line cut, or its body kind swapped."""
    lines = _constructed(draw(st.sampled_from(CONTRACT_RECIPES))).splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    tokens = lines[i].split()
    j = draw(st.integers(0, len(tokens) - 1))
    how = draw(st.sampled_from(("drop", "duplicate", "garble", "rename",
                                "cut", "swap")))
    if how == "drop":
        del tokens[j]
    elif how == "duplicate":
        tokens.insert(j, tokens[j])
    elif how == "garble":
        tokens[j] = draw(st.text("{},#ab19 -", max_size=6))
    elif how == "rename":
        old = draw(st.sampled_from(lines[1].split()[1:]))
        new = draw(st.sampled_from(["a", "z", "q1", "", "{a}", "a,b"]))
        tokens = lines[i].replace(old, new).split()
    elif how == "cut":
        tokens = lines[i][:draw(st.integers(0, len(lines[i])))].split()
    else:
        body = draw(st.sampled_from(("circuits", "nonspanning_circuits",
                                     "rank 3\nnonspanning_circuits", "name")))
        tokens = [body if t == "bases" else t for t in tokens]
    lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(text=mutated_files(), data=st.data())
def test_cli_contract_on_mutated_files(text, data):
    # every command either succeeds or exits 2 with one `error=` line
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "m.mtx"
        path.write_text(text)
        minor = Path(d) / "u24.mtx"
        minor.write_text(_constructed("uniform 2 4"))
        labels = data.draw(st.lists(st.sampled_from("abcdefgh"), max_size=4))
        for argv in (["analyze", str(path)], ["separators", str(path)],
                     ["detachable", str(path), "--minor", str(minor)],
                     ["detachable", str(minor), "--minor", str(path)],
                     ["construct", f"dual {path}"],
                     ["construct", f"relax {path} {{{','.join(labels)}}}"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = main(argv)
            lines = err.getvalue().splitlines()
            assert rc == 0 or (rc == 2 and len(lines) == 1
                               and lines[0].startswith("error=")), (argv, rc)
            assert "Traceback" not in err.getvalue()
