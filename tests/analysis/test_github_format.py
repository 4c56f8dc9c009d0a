"""The ``--format github`` renderer: workflow-command escaping and
stable ordering.

GitHub Actions parses ``::level param=value::message`` lines; a ``%``,
newline, or (in property values) ``:``/``,`` that leaks through
unescaped truncates or corrupts the annotation.
"""

from repro.analysis.diagnostics import (
    Diagnostic,
    _github_escape,
    make_diagnostic,
    render_github,
)


def test_escape_percent_and_newlines():
    assert _github_escape("50% done\nnext") == "50%25 done%0Anext"
    assert _github_escape("a\r\nb") == "a%0D%0Ab"


def test_escape_property_values_also_escape_colon_and_comma():
    assert _github_escape("a:b,c", property_value=True) == "a%3Ab%2Cc"
    # message position keeps : and , literal
    assert _github_escape("a:b,c") == "a:b,c"


def test_percent_escaped_first():
    # '%0A' in the input must round-trip as %250A, not re-read as a
    # newline escape
    assert _github_escape("x%0Ay") == "x%250Ay"


def test_multiline_message_renders_on_one_line():
    diag = make_diagnostic(
        "NPL101",
        "first line\nsecond line",
        file="a.py",
        line=3,
        col=1,
    )
    (line,) = render_github([diag]).splitlines()
    assert line == (
        "::error file=a.py,line=3,col=1,title=NPL101::NPL101 "
        "first line%0Asecond line"
    )


def test_colon_in_file_name_is_escaped():
    diag = make_diagnostic(
        "NPL104", "msg", file="C:\\src\\a.py", line=1, col=1
    )
    out = render_github([diag])
    assert "file=C%3A\\src\\a.py" in out


def test_severity_levels_map_to_github_levels():
    diags = [
        make_diagnostic("NPL201", "e", file="a.py", line=1, col=1),
        make_diagnostic("NPL501", "w", file="a.py", line=2, col=1),
        make_diagnostic("NPL404", "i", node="#2 Map"),
    ]
    lines = render_github(diags).splitlines()
    # plan-located findings have no file and sort first
    assert lines[0].startswith("::notice ")
    assert lines[1].startswith("::error ")
    assert lines[2].startswith("::warning ")


def test_plan_located_findings_annotate_without_file():
    diag = make_diagnostic("NPL301", "reused twice", node="#4 Map")
    (line,) = render_github([diag]).splitlines()
    assert "file=" not in line
    assert "plan #4 Map: reused twice" in line


def test_ordering_is_stable_across_files():
    diags = [
        make_diagnostic("NPL104", "d", file="b.py", line=1, col=1),
        make_diagnostic("NPL102", "c", file="a.py", line=9, col=1),
        make_diagnostic("NPL104", "b", file="a.py", line=2, col=5),
        make_diagnostic("NPL101", "a", file="a.py", line=2, col=5),
    ]
    rendered = [
        line.split("::")[2].split(" ")[0]
        for line in render_github(diags).splitlines()
    ]
    files = [
        line.split("file=")[1].split(",")[0]
        for line in render_github(diags).splitlines()
    ]
    # (file, line, col, code): a.py before b.py, then by position,
    # ties broken by code -- identical for any input permutation
    assert files == ["a.py", "a.py", "a.py", "b.py"]
    assert rendered == ["NPL101", "NPL104", "NPL102", "NPL104"]
    for permutation in (reversed(diags), sorted(
        diags, key=lambda d: d.message
    )):
        assert render_github(list(permutation)) == render_github(diags)
