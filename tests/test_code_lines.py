"""The code-line count of ``tests/code_lines.py`` skips exactly blank lines,
comments and module, class and function docstrings."""

from code_lines import code_lines


def test_code_lines_skip_blanks_comments_and_docstrings():
    source = (
        '"""Module docstring,\n'
        'over two lines."""\n'
        "\n"
        "# a comment line\n"
        "import os  # code with a trailing comment counts\n"
        "\n"
        "\n"
        "class C:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def f(self):\n"
        "        '''Function docstring,\n"
        "        over two lines.'''\n"
        "        # an indented comment\n"
        '        text = """a string that is not a docstring,\n'
        '        over two lines"""\n'
        "        return (text,\n"
        "                os.sep)\n"
    )
    # import, class, def, the two lines of text and the two of the return
    assert code_lines(source) == 7
