"""File format round-trips, parse diagnostics, CLI commands and exit codes."""

import io
import contextlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trisect
from trisect import (
    IntMatrix,
    SymplecticLattice,
    TrisectionDiagram,
    apply_diffeomorphism,
    builtin,
    builtin_names,
    connect_sum,
    handle_slide,
    reverse_orientation,
    stabilize,
    SlideMove,
)
from trisect.cli import (
    DiagramParseError,
    parse_diagram,
    parse_int_matrix,
    run,
    serialize_diagram,
)

from helpers import random_valid_diagram


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def example_file(tmp_path, name):
    return write(tmp_path, name + ".tris", serialize_diagram(builtin(name)))


class TestFormat:
    def test_round_trip_atlas(self):
        for name in builtin_names():
            d = builtin(name)
            assert parse_diagram(serialize_diagram(d)) == d

    def test_round_trip_random(self):
        for seed in range(15):
            d = random_valid_diagram(seed)
            assert parse_diagram(serialize_diagram(d)) == d

    def test_genus_zero(self):
        d = TrisectionDiagram.from_rows(0, [], [], [])
        text = serialize_diagram(d)
        assert text == "tris v1\ngenus 0\nalpha\nbeta\ngamma\n"
        assert parse_diagram(text) == d

    def test_comments_and_blank_lines(self):
        text = """
        # a diagram of the projective plane's 4-dimensional cousin
        tris v1

        genus 1   # one handle
        alpha
        1 0
        beta
        0 1  # the dual curve
        gamma
        1 1
        """
        d = parse_diagram(text)
        assert d == builtin("cp2")
        # canonical serialization strips all decoration
        assert serialize_diagram(d) == serialize_diagram(builtin("cp2"))

    def test_negative_entries_and_whitespace(self):
        text = "tris v1\ngenus 1\nalpha\n  -1    0\nbeta\n0 +1\ngamma\n-1 -1\n"
        d = parse_diagram(text)
        assert d.alpha.classes.entries == ((-1, 0),)
        assert d.gamma.classes.entries == ((-1, -1),)

    def test_version_mismatch_line_number(self):
        with pytest.raises(DiagramParseError) as exc:
            parse_diagram("# intro\ntris v2\n")
        assert exc.value.line == 2
        assert "line 2" in str(exc.value)
        assert "v2" in str(exc.value)

    def test_missing_header(self):
        with pytest.raises(DiagramParseError) as exc:
            parse_diagram("genus 1\n")
        assert exc.value.line == 1

    def test_bad_genus(self):
        with pytest.raises(DiagramParseError) as exc:
            parse_diagram("tris v1\ngenus x\n")
        assert exc.value.line == 2
        with pytest.raises(DiagramParseError) as exc:
            parse_diagram("tris v1\ngenus -1\n")
        assert "nonnegative" in str(exc.value)

    def test_wrong_entry_count(self):
        text = "tris v1\ngenus 1\nalpha\n1 0 0\nbeta\n0 1\ngamma\n1 1\n"
        with pytest.raises(DiagramParseError) as exc:
            parse_diagram(text)
        assert exc.value.line == 4
        assert "expected 2" in str(exc.value)

    def test_missing_rows_hits_section_marker(self):
        text = "tris v1\ngenus 2\nalpha\n1 0 0 0\nbeta\n0 0 1 0\n0 0 0 1\ngamma\n0 1 1 0\n1 0 0 1\n"
        with pytest.raises(DiagramParseError) as exc:
            parse_diagram(text)
        assert exc.value.line == 5

    def test_non_integer_entry(self):
        text = "tris v1\ngenus 1\nalpha\n1 zero\nbeta\n0 1\ngamma\n1 1\n"
        with pytest.raises(DiagramParseError) as exc:
            parse_diagram(text)
        assert exc.value.line == 4
        assert "zero" in str(exc.value)

    def test_underscore_not_an_integer(self):
        text = "tris v1\ngenus 1\nalpha\n1 1_0\nbeta\n0 1\ngamma\n1 1\n"
        with pytest.raises(DiagramParseError):
            parse_diagram(text)

    def test_unicode_spaces_separate_entries(self):
        # str.split separates at NBSP and em space; the full-line row
        # pattern does not, so these rows take the per-token path
        text = "tris v1\ngenus 1\nalpha\n1\xa00\nbeta\n0 1\ngamma\n1\xa0 1\n"
        assert parse_diagram(text) == builtin("cp2")

    def test_non_ascii_digit_is_an_invalid_integer(self):
        text = "tris v1\ngenus 1\nalpha\n1 0\nbeta\n0 ١\ngamma\n1 1\n"
        with pytest.raises(DiagramParseError) as exc:
            parse_diagram(text)
        assert exc.value.line == 6
        assert str(exc.value) == "line 6: invalid integer '١'"

    def test_decorated_crlf_file_parses_to_the_canonical_diagram(self):
        text = (
            "# cp2\r\ntris v1\r\n\tgenus 1 # one handle\r\nalpha\r\n+1\t-0  # x\r\n"
            "beta\r\n-0\t+1\r\n\r\ngamma\t\r\n 1 \t 1# c\r\n"
        )
        d = parse_diagram(text)
        assert d == builtin("cp2")
        assert serialize_diagram(d) == "tris v1\ngenus 1\nalpha\n1 0\nbeta\n0 1\ngamma\n1 1\n"

    def test_too_many_tokens_reports_the_count_first(self):
        text = "tris v1\ngenus 1\nalpha\n1 x 0\nbeta\n0 1\ngamma\n1 1\n"
        with pytest.raises(DiagramParseError) as exc:
            parse_diagram(text)
        assert exc.value.line == 4
        assert str(exc.value) == "line 4: alpha row 1: expected 2 entries, found 3"

    def test_wrong_section_name(self):
        text = "tris v1\ngenus 0\nalpha\ngamma\nbeta\n"
        with pytest.raises(DiagramParseError) as exc:
            parse_diagram(text)
        assert exc.value.line == 4
        assert "beta" in str(exc.value)

    def test_trailing_content(self):
        text = serialize_diagram(builtin("cp2")) + "extra stuff\n"
        with pytest.raises(DiagramParseError) as exc:
            parse_diagram(text)
        assert "extra stuff" in str(exc.value)

    def test_truncated_file(self):
        with pytest.raises(DiagramParseError) as exc:
            parse_diagram("tris v1\ngenus 1\nalpha\n1 0\nbeta\n")
        assert "end of input" in str(exc.value)

    def test_parse_int_matrix(self):
        m = parse_int_matrix("1 0\n0 1\n# done\n")
        assert m == IntMatrix.identity(2)
        assert parse_int_matrix("").shape == (0, 0)
        with pytest.raises(DiagramParseError) as exc:
            parse_int_matrix("1 0\n0\n")
        assert exc.value.line == 2


class TestCommands:
    def test_validate_valid(self, tmp_path):
        code, out, err = cli("validate", example_file(tmp_path, "cp2"))
        assert code == 0
        assert "VALID" in out and "homological" in out

    def test_validate_invalid(self, tmp_path):
        bad = write(
            tmp_path, "bad.tris", "tris v1\ngenus 1\nalpha\n2 0\nbeta\n0 1\ngamma\n1 1\n"
        )
        code, out, err = cli("validate", bad)
        assert code == 1
        assert "INVALID" in out
        assert "primitive" in out

    def test_invariants(self, tmp_path):
        code, out, _ = cli("invariants", example_file(tmp_path, "cp2"))
        assert code == 0
        lines = out.splitlines()
        assert "g=1" in lines and "k=0" in lines and "chi=3" in lines
        assert "sigma=1" in lines and "H1=0" in lines
        assert "handles=1,0,1,0,1" in lines
        assert "Q_alpha_beta=[1]" in lines
        assert "Q_beta_gamma=[-1]" in lines

    def test_invariants_of_invalid_diagram(self, tmp_path):
        bad = write(
            tmp_path, "bad.tris", "tris v1\ngenus 1\nalpha\n1 0\nbeta\n0 1\ngamma\n2 1\n"
        )
        code, out, err = cli("invariants", bad)
        assert code == 1
        assert "invalid" in err

    def test_byte_order_mark_is_read_past(self, tmp_path):
        # some editors start a UTF-8 file with a byte-order mark
        plain = example_file(tmp_path, "cp2")
        marked = tmp_path / "cp2-bom.tris"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(plain).read_bytes())
        want = cli("invariants", plain)
        assert want[0] == 0
        assert cli("invariants", str(marked)) == want
        matrix = tmp_path / "j-bom.mat"
        matrix.write_bytes(b"\xef\xbb\xbf0 1\n-1 0\n")
        code, out, err = cli("diffeo", plain, "--matrix", str(matrix))
        assert (code, err) == (0, "")
        j = SymplecticLattice(1).form_matrix()
        assert parse_diagram(out) == apply_diffeomorphism(builtin("cp2"), j)

    def test_stabilize_pipeline(self, tmp_path):
        src = example_file(tmp_path, "cp2")
        code, out, _ = cli("stabilize", src, "-n", "2")
        assert code == 0
        d = parse_diagram(out)
        assert d == stabilize(stabilize(builtin("cp2")))
        code, out2, _ = cli("stabilize", src)
        assert parse_diagram(out2) == stabilize(builtin("cp2"))

    def test_slide_is_one_based(self, tmp_path):
        src = example_file(tmp_path, "s2xs2-g2-model")
        code, out, _ = cli(
            "slide", src, "--system", "alpha", "--target", "1", "--source", "2", "--sign", "+"
        )
        assert code == 0
        expected = handle_slide(builtin("s2xs2-g2-model"), SlideMove("alpha", 0, 1, 1))
        assert parse_diagram(out) == expected

    def test_slide_minus_sign(self, tmp_path):
        src = example_file(tmp_path, "s4-g3")
        code, out, _ = cli(
            "slide", src, "--system", "beta", "--target", "3", "--source", "1", "--sign", "-"
        )
        assert code == 0
        expected = handle_slide(builtin("s4-g3"), SlideMove("beta", 2, 0, -1))
        assert parse_diagram(out) == expected

    def test_slide_bad_index(self, tmp_path):
        src = example_file(tmp_path, "cp2")
        code, _, err = cli(
            "slide", src, "--system", "alpha", "--target", "1", "--source", "2", "--sign", "+"
        )
        assert code == 2
        code, _, err = cli(
            "slide", src, "--system", "alpha", "--target", "0", "--source", "1", "--sign", "+"
        )
        assert code == 2

    def test_diffeo(self, tmp_path):
        src = example_file(tmp_path, "cp2")
        j = SymplecticLattice(1).form_matrix()
        mat = write(tmp_path, "j.mat", "0 1\n-1 0\n")
        code, out, _ = cli("diffeo", src, "--matrix", mat)
        assert code == 0
        assert parse_diagram(out) == apply_diffeomorphism(builtin("cp2"), j)

    def test_diffeo_rejects_non_symplectic(self, tmp_path):
        src = example_file(tmp_path, "cp2")
        mat = write(tmp_path, "bad.mat", "2 0\n0 1\n")
        code, _, err = cli("diffeo", src, "--matrix", mat)
        assert code == 2
        assert "symplectic" in err

    def test_sum(self, tmp_path):
        f1 = example_file(tmp_path, "cp2")
        f2 = example_file(tmp_path, "cp2-mirror")
        code, out, _ = cli("sum", f1, f2)
        assert code == 0
        assert parse_diagram(out) == connect_sum(builtin("cp2"), builtin("cp2-mirror"))
        assert parse_diagram(out) == builtin("cp2-sum-cp2mirror")

    def test_reverse(self, tmp_path):
        src = example_file(tmp_path, "cp2")
        code, out, _ = cli("reverse", src)
        assert code == 0
        assert parse_diagram(out) == reverse_orientation(builtin("cp2"))

    def test_example_and_examples(self):
        code, out, _ = cli("examples")
        assert code == 0
        assert out.split() == list(builtin_names())
        code, out, _ = cli("example", "s1xs3")
        assert code == 0
        assert parse_diagram(out) == builtin("s1xs3")
        code, _, err = cli("example", "k3")
        assert code == 2
        assert "unknown example" in err

    def test_compare_distinct(self, tmp_path):
        f1 = example_file(tmp_path, "cp2")
        f2 = example_file(tmp_path, "cp2-mirror")
        code, out, _ = cli("compare", f1, f2)
        assert code == 1
        assert "distinct-by-invariant" in out and "signature" in out

    def test_compare_identical(self, tmp_path):
        f1 = example_file(tmp_path, "cp2")
        code, out, _ = cli("compare", f1, f1)
        assert code == 0
        assert "identical" in out

    def test_compare_slide_equivalent_certificate_replays(self, tmp_path):
        d = builtin("s4-g3")
        slid = handle_slide(d, SlideMove("alpha", 0, 2, 1))
        f1 = write(tmp_path, "slid.tris", serialize_diagram(slid))
        f2 = example_file(tmp_path, "s4-g3")
        code, out, _ = cli("compare", f1, f2, "--depth", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("slide-equivalent")
        # the printed certificate is itself a runnable slide command
        tokens = lines[1].split()
        assert tokens[0] == "slide"
        args = dict(zip(tokens[1::2], tokens[2::2]))
        code2, out2, _ = cli(
            "slide", f1,
            "--system", args["--system"],
            "--target", args["--target"],
            "--source", args["--source"],
            "--sign", args["--sign"],
        )
        assert code2 == 0
        assert parse_diagram(out2) == d

    def test_compare_unknown_budget(self, tmp_path):
        d = builtin("s4-g3")
        slid = d
        for mv in (
            SlideMove("alpha", 0, 1, 1),
            SlideMove("beta", 1, 2, 1),
            SlideMove("gamma", 2, 0, -1),
        ):
            slid = handle_slide(slid, mv)
        f1 = write(tmp_path, "far.tris", serialize_diagram(slid))
        f2 = example_file(tmp_path, "s4-g3")
        code, out, _ = cli("compare", f1, f2, "--depth", "1")
        assert code == 3
        assert "unknown" in out

    def test_params(self):
        code, out, _ = cli("params", "fiber-s1", "--genus", "1")
        assert code == 0 and out.strip() == "g=7 k=3 chi=0"
        code, out, _ = cli("params", "bundle-s2", "--fiber-genus", "0")
        assert code == 0 and out.strip() == "g=5 k=1 chi=4"
        code, _, err = cli("params", "fiber-s1", "--genus", "-1")
        assert code == 2

    def test_usage_errors(self):
        assert cli()[0] == 2
        assert cli("validate")[0] == 2
        assert cli("no-such-command")[0] == 2
        assert cli("--help")[0] == 0

    def test_missing_file(self):
        code, _, err = cli("validate", "/nonexistent/never.tris")
        assert code == 2
        assert err

    def test_parse_error_reaches_user(self, tmp_path):
        bad = write(tmp_path, "bad.tris", "tris v7\n")
        code, _, err = cli("validate", bad)
        assert code == 2
        assert "line 1" in err


class TestModuleEntryPoint:
    """`python -m trisect.cli` behaves as the installed `trisect` script."""

    @staticmethod
    def module_cli(*argv, stdin=None):
        src = str(Path(trisect.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        return subprocess.run(
            [sys.executable, "-m", "trisect.cli", *argv],
            input=stdin,
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )

    def test_invalid_file_exits_one_with_the_report(self, tmp_path):
        bad = write(
            tmp_path, "bad.tris", "tris v1\ngenus 1\nalpha\n2 0\nbeta\n0 1\ngamma\n1 1\n"
        )
        done = self.module_cli("validate", bad)
        assert done.returncode == 1
        assert "result: INVALID" in done.stdout.splitlines()

    def test_example_pipes_into_invariants(self):
        example = self.module_cli("example", "cp2")
        assert example.returncode == 0
        done = self.module_cli("invariants", "/dev/stdin", stdin=example.stdout)
        assert done.returncode == 0
        assert done.stdout == (
            "g=1\nk=0\nchi=3\nsigma=1\nH1=0\nhandles=1,0,1,0,1\n"
            "Q_alpha_beta=[1]\nQ_beta_gamma=[-1]\nQ_gamma_alpha=[-1]\n"
        )
