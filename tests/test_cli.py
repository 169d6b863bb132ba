import argparse
import io
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import shellability
from helpers import complexes, label_sets, vset
from shellability import (
    ParseError,
    VoidComplex,
    from_facets,
    is_shelling_order,
    parse_complex,
    serialize_complex,
    serialize_nonfaces,
    minimal_nonfaces,
)
from shellability.cli import _COMMANDS, build_parser, main, parse_complex_with_order

DATA = Path(__file__).parent / "data"
DEMO = str(DATA / "demo.cplx")
TWO_EDGES = str(DATA / "two_edges.cplx")
VOID_ERROR = "error: no faces given: the void complex is not supported\n"


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestParseComplex:
    def test_facet_input_infers_labels(self, demo):
        text = "facets: c e g / b e g / a e g / b d g / a d g / c e f / b e f / a e f"
        parsed = parse_complex(text)
        # labels are collected in first-occurrence order (c, e, g, b, ...)
        assert parsed.vertices.labels == tuple("cegbadf")
        assert label_sets(parsed, parsed.facets) == label_sets(demo, demo.facets)

    def test_nonface_input(self, demo):
        text = (
            "vertices: a b c d e f g\n"
            "nonfaces: a b / a c / b c / c d / d e / d f / f g\n"
        )
        assert parse_complex(text) == demo

    def test_empty_face_token(self):
        parsed = parse_complex("vertices: a b\nfacets: ()")
        assert parsed.kind == "irrelevant"

    def test_comments_and_blank_lines(self):
        text = "# comment\n\nvertices: a b  # trailing\nfacets: a b\n"
        parsed = parse_complex(text)
        assert [parsed.vertices.face_labels(f) for f in parsed.facets] == [("a", "b")]

    def test_parsed_order_tracks_first_appearance(self):
        text = "facets: b c / a b / a\n"
        cplx, order = parse_complex_with_order(text)
        # inferred positions follow first occurrence: b, c, a
        assert [set(cplx.vertices.face_labels(f)) for f in order] == [
            {"b", "c"}, {"a", "b"},
        ]

    def test_errors_carry_position(self):
        with pytest.raises(ParseError) as info:
            parse_complex("facets: a b\ngarbage line\n")
        assert info.value.line == 2
        with pytest.raises(ParseError) as info:
            parse_complex("vertices: a b a\nfacets: a\n")
        assert info.value.line == 1 and info.value.column == 15
        with pytest.raises(ParseError):
            parse_complex("vertices: a b\nfacets: a c\n")
        with pytest.raises(ParseError):
            parse_complex("nonfaces: a b\n")
        with pytest.raises(ParseError):
            parse_complex("vertices: a\n")
        with pytest.raises(ParseError):
            parse_complex("facets: a\nfacets: b\n")
        many_vertices = "vertices: " + " ".join(f"v{i}" for i in range(65)) + "\nfacets: v0\n"
        many_facets = "facets: " + " / ".join(f"v{i} v{i + 1}" for i in range(64)) + " / v64\n"
        for text, line, column in (
            ("vertices: a b\nfacets: a ()\n", 2, 9),
            ("vertices: a / b\nfacets: a\n", 1, 13),
            ("vertices: a\nvertices: b\nfacets: a\n", 2, 1),
            # an unknown label after an empty group, and in a later group
            ("vertices: a b\nfacets: a b / / b c\n", 2, 19),
            ("vertices: a b c\nfacets: a / a b / b c d\n", 2, 23),
            # '()' not standing alone, at its group's first label; it wins
            # over an unknown label
            ("vertices: a b\nfacets: a / b () \n", 2, 13),
            ("facets: a b / b c / c () / x\n", 1, 21),
            # a tab counts as one column
            ("  vertices:\ta  b\tc\n facets :  a b /\t/ c\t()\n", 2, 20),
            # on the vertex line a duplicate before the first '/' wins
            ("vertices: a a / b\nfacets: a\n", 1, 13),
            ("vertices: a / a\nfacets: a\n", 1, 13),
            ("vertices: a ()\nfacets: a\n", 1, 13),
            # a 65th label, on the vertex line and first met on the face list
            (many_vertices, 1, many_vertices.index("v64") + 1),
            (many_facets, 1, many_facets.index("v64") + 1),
            # a label holding ',', on the vertex line and first met on the
            # face list
            ("vertices: c a,b\nfacets: c\n", 1, 13),
            ("facets: c / a,b c / a,b\n", 1, 13),
        ):
            with pytest.raises(ParseError) as info:
                parse_complex(text)
            assert (info.value.line, info.value.column) == (line, column)

    def test_too_many_vertices(self):
        labels = " ".join(f"v{i}" for i in range(65))
        with pytest.raises(ParseError):
            parse_complex(f"vertices: {labels}\nfacets: v0\n")


class TestSerialisation:
    def test_demo_round_trip(self, demo):
        assert parse_complex(serialize_complex(demo)) == demo

    def test_void_and_irrelevant(self):
        irrelevant = from_facets(vset("ab"), [0])
        assert serialize_complex(irrelevant) == "vertices: a b\nfacets: ()\n"
        assert parse_complex(serialize_complex(irrelevant)) == irrelevant
        # the void complex has no value, so its document does not parse
        with pytest.raises(VoidComplex):
            parse_complex("vertices: a b\nfacets:\n")

    def test_nonfaces_round_trip(self, demo):
        doc = serialize_nonfaces(demo, minimal_nonfaces(demo).gens)
        assert parse_complex(doc) == demo

    @given(complexes())
    def test_round_trip_is_identity(self, c):
        assert parse_complex(serialize_complex(c)) == c

    @given(complexes(), st.data())
    def test_round_trip_with_messy_spacing(self, c, data):
        # runs of spaces and tabs, empty groups, a trailing '/' and a
        # trailing comment parse as the canonical document does
        vertices, facets = serialize_complex(c).splitlines()
        groups = facets.split(" / ")
        seps = st.sampled_from([" / ", " / / ", " // "])
        facets = groups[0] + "".join(data.draw(seps) + g for g in groups[1:]) + " / # comment"
        gap = st.text(" \t", min_size=1, max_size=4)
        text = "".join(data.draw(gap) if ch == " " else ch for ch in f"{vertices}\n{facets}\n")
        assert parse_complex_with_order(text) == (c, c.facets)


class TestCommands:
    def test_info_plain(self, capsys):
        code, out = run(capsys, "info", DEMO)
        assert code == 0
        assert "f-vector: 1 7 14 8" in out
        assert "h-vector: 1 4 3 0" in out
        assert "pure: true" in out

    def test_info_json(self, capsys, monkeypatch):
        code, out = run(capsys, "info", "--json", DEMO)
        report = json.loads(out)
        assert report["f_vector"] == [1, 7, 14, 8]
        assert report["kind"] == "proper"
        monkeypatch.setattr(sys, "stdin", io.StringIO("vertices: a b\nfacets: ()\n"))
        code, out = run(capsys, "info", "--json", "-")
        assert json.loads(out)["kind"] == "irrelevant"

    def test_boolean_exit_codes(self, capsys):
        assert run(capsys, "shellable", DEMO)[0] == 0
        assert run(capsys, "shellable", TWO_EDGES)[0] == 1
        assert run(capsys, "vertex-decomposable", DEMO)[0] == 0
        assert run(capsys, "vertex-decomposable", TWO_EDGES)[0] == 1
        code, out = run(capsys, "k-decomposable", "--k", "0", DEMO)
        assert code == 0 and out.strip() == "true"

    def test_shelling_order_verifies(self, capsys, demo):
        code, out = run(capsys, "shelling-order", "--json", DEMO)
        assert code == 0
        report = json.loads(out)
        order = [demo.vertices.face(tuple(f)) for f in report["shelling_order"]]
        assert is_shelling_order(demo, order)

    def test_permutation_mirrors_parsed_file_order(self, capsys, demo):
        # demo.cplx lists its facets in the session order, so these indices
        # reproduce the session's permuted search
        code, out = run(
            capsys, "linear-quotients", "--permutation", "3,2,1,0,4,5,6,7", DEMO
        )
        assert code == 0
        assert out.splitlines()[1] == "quotients: e / a / c / a d / f / f b / f a"
        code, out = run(
            capsys, "linear-quotients", "--permutation", "0,1,2,3,4,5,6,7", DEMO
        )
        assert out.splitlines()[1] == "quotients: b / a / d / d a / f / f b / f a"

    def test_no_shelling_order_exit(self, capsys):
        code, out = run(capsys, "shelling-order", TWO_EDGES)
        assert code == 1 and "no shelling order" in out

    def test_link_pipes_into_shedding(self, capsys, monkeypatch):
        code, out = run(capsys, "link", "--face", "f", DEMO)
        assert code == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        code, out = run(capsys, "shedding", "--k", "0", "-")
        assert code == 0
        assert "shedding vertices: a b c" in out

    def test_face_separators(self, capsys):
        # commas and whitespace separate --face labels alike
        faces = ("a,e", "a e", " a , e ")
        outs = {run(capsys, "link", "--face", face, DEMO) for face in faces}
        assert outs == {(0, "vertices: a b c d e f g\nfacets: f / g\n")}

    def test_dual_output_reparses(self, capsys, demo):
        code, out = run(capsys, "dual", DEMO)
        assert code == 0
        dual = parse_complex(out)
        code, out = run(capsys, "nonfaces", DEMO)
        assert parse_complex(out) == demo
        assert dual.kind == "proper"

    def test_domain_error_exit_codes(self, capsys, tmp_path):
        bad = tmp_path / "void.cplx"
        bad.write_text("facets:\n")
        assert run(capsys, "info", str(bad))[0] == 3
        assert run(capsys, "link", "--face", "zz", DEMO)[0] == 3
        capsys.readouterr()
        # out of range, negative and repeated indices
        for given in ("0,1,2,3,4,5,6,99", "-1,0,1,2,3,4,5,6", "0,0,1,2,3,4,5,6"):
            assert main(["shelling-order", f"--permutation={given}", DEMO]) == 3
            got = ", ".join(given.split(","))
            assert capsys.readouterr() == (
                "", f"error: expected a permutation of 0..7, got ({got})\n"
            )

    def test_info_on_void_complex_prints_nothing(self, capsys, tmp_path):
        void = tmp_path / "void.cplx"
        void.write_text("vertices: a b\nfacets:\n")
        assert main(["info", str(void)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == VOID_ERROR

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_void_document_is_refused(self, capsys, tmp_path, command, as_json):
        void = tmp_path / "void.cplx"
        void.write_text("vertices: a b\nfacets:\n")
        assert main([command, *(["--json"] if as_json else []), str(void)]) == 3
        assert capsys.readouterr() == ("", VOID_ERROR)

    def test_usage_error_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["unknown-command", DEMO])
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            main(["shelling-order", "--permutation", "1,x", DEMO])
        assert info.value.code == 2
        assert run(capsys, "info", str(DATA / "missing.cplx"))[0] == 2
        # --random would shuffle the order --permutation gives, so the pair
        # is refused before any search, with stdout empty
        argv = ["shelling-order", "--random", "--seed", "3", "--permutation", "0,1,2,3,4,5,6,7"]
        assert main([*argv, DEMO]) == 2
        err = "error: --random and --permutation cannot be combined\n"
        assert capsys.readouterr() == ("", err)

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.cplx"
        bad.write_text("vertices: a a\nfacets: a\n")
        assert main(["info", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: line 1, column 13: duplicate vertex label 'a'\n"
        # a label holding ',' parses nowhere, since --face could not name it
        bad.write_text("vertices: a,b c d\nfacets: c d\n")
        assert main(["info", str(bad)]) == 2
        err = "error: line 1, column 11: invalid vertex label 'a,b'\n"
        assert capsys.readouterr() == ("", err)


class TestHelp:
    def test_help_strings_defaults_and_metavars(self):
        # (flag or positional, help, default, metavar) of each command's
        # arguments, taken from the parser
        common = [
            ("--help", "show this help message and exit", argparse.SUPPRESS, None),
            ("source", "complex file, or - for stdin", None, None),
            ("--json", "emit a JSON report", False, None),
        ]
        order = [
            ("--random", "shuffle the facets before searching", False, None),
            ("--seed", "64-bit seed for --random (default 0)", 0, None),
            ("--permutation", "facet permutation; indices refer to the facets as parsed",
             None, "CSV"),
        ]
        k = [("--k", "maximum shedding-face dimension (default 0)", 0, None)]
        face = [("--face", "face given as space- or comma-separated labels", "", "LABELS")]
        expected = [
            ("info", "print the complex and its invariants", []),
            ("shellable", "exit 0 if shellable, 1 if not", []),
            ("shelling-order", "search for a shelling order", order),
            ("vertex-decomposable", "exit 0 if vertex-decomposable, 1 if not", []),
            ("k-decomposable", "exit 0 if k-decomposable, 1 if not", k),
            ("shedding", "list shedding faces (and vertices when --k 0)", k),
            ("dual", "print the Alexander dual complex", []),
            ("nonfaces", "print the minimal nonfaces", []),
            ("link", "print the link by --face", face),
            ("delete", "print the face deletion by --face", face),
            ("linear-quotients", "linear quotient steps of a found shelling order", order),
        ]
        sub = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        helps = {a.dest: a.help for a in sub._choices_actions}
        actual = [
            (name, helps[name], [
                (a.option_strings[-1] if a.option_strings else a.dest,
                 a.help, a.default, a.metavar)
                for a in parser._actions
            ])
            for name, parser in sub.choices.items()
        ]
        assert actual == [(name, text, common + flags) for name, text, flags in expected]


def loaded_by_import(module: str, names: tuple[str, ...]) -> list[str]:
    """Which of the modules ``names`` a fresh ``python -S`` has loaded after
    ``import module``.  ``-S`` skips the site module, whose ``.pth`` files
    may load modules themselves and so hide what the package pulls in."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(DATA.parents[1] / "src") + os.pathsep + env.get("PYTHONPATH", "")
    probe = f"import sys, {module}; print(*[m for m in {names!r} if m in sys.modules])"
    run = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.split()


class TestImport:
    def test_package_import_leaves_out_the_cli(self):
        assert loaded_by_import("shellability", ("argparse", "json", "shellability.cli")) == []

    def test_package_import_leaves_out_introspection_and_typing(self):
        # the value classes are plain classes, and annotations name
        # collections.abc, so no dataclasses (with inspect, ast, dis and
        # tokenize behind it) or typing is compiled at start-up
        names = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")
        assert loaded_by_import("shellability", names) == []

    def test_cli_import_leaves_out_dataclasses_and_pathlib(self):
        names = ("dataclasses", "inspect", "pathlib")
        assert loaded_by_import("shellability.cli", names) == []

    def test_all_lists_every_public_name(self):
        bound = {
            name
            for name, value in vars(shellability).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        }
        assert sorted(shellability.__all__) == sorted(bound)


class TestDeterminism:
    def test_seeded_search_is_byte_identical(self):
        env = dict(os.environ)
        src = str(DATA.parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        cmd = [
            sys.executable, "-m", "shellability",
            "shelling-order", "--random", "--seed", "42", DEMO,
        ]
        runs = [subprocess.run(cmd, capture_output=True, env=env) for _ in range(2)]
        assert runs[0].returncode == 0
        assert runs[0].stdout == runs[1].stdout

    def test_plain_output_stable_across_invocations(self, capsys):
        first = run(capsys, "linear-quotients", "--random", "--seed", "9", DEMO)
        second = run(capsys, "linear-quotients", "--random", "--seed", "9", DEMO)
        assert first == second


class TestSharedParser:
    """``main`` builds its parser once per process; nothing one call parses
    may reach the next."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_second_call_constructs_no_parser(self, monkeypatch):
        build_parser.cache_clear()
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert main(["info", DEMO]) == 0
        assert len(built) == 1 + len(_COMMANDS)  # the top level and one per command
        built.clear()
        assert main(["info", DEMO]) == 0
        assert built == []

    def test_calls_in_one_process_match_their_transcripts(self, capsys, monkeypatch):
        # usage messages are wrapped to the terminal width
        monkeypatch.setenv("COLUMNS", "80")
        golden = DATA / "golden"
        index = json.loads((golden / "cases.json").read_text())
        env = dict(os.environ)
        env["PYTHONPATH"] = str(DATA.parents[1] / "src") + os.pathsep + env.get("PYTHONPATH", "")

        def transcript(name):
            case = index[name]
            return case["exit"], (golden / f"{name}.out").read_text(), case["stderr"]

        def fresh_process(*argv):
            done = subprocess.run(
                [sys.executable, "-m", "shellability", *argv],
                capture_output=True, text=True, env=env,
            )
            return done.returncode, done.stdout, done.stderr

        def in_process(*argv):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            return (code, *capsys.readouterr())

        unknown = ("unknown-command", DEMO)
        bad_permutation = ("shelling-order", "--permutation", "1,x", DEMO)
        steps = [
            (("shelling-order", "--random", "--seed", "5", DEMO),
             transcript("demo-shelling-order-random5")),
            (("shelling-order", DEMO), transcript("demo-shelling-order")),
            (unknown, fresh_process(*unknown)),
            (bad_permutation, fresh_process(*bad_permutation)),
            # the JSON report shows k, so a --k left over would show
            (("k-decomposable", "--k", "1", "--json", DEMO),
             transcript("demo-k-decomposable-k1-json")),
            (("k-decomposable", "--json", DEMO), transcript("demo-k-decomposable-json")),
        ]
        assert [expected[0] for _, expected in steps] == [0, 0, 2, 2, 0, 0]
        for argv, expected in steps:
            assert in_process(*argv) == expected, argv
