"""Text comes in and goes out one way: a scan of src/privtext for text
opened, or a standard stream used, outside the text-I/O functions.

embeddings.text_file reads every text input, a file's or stdin's, as UTF-8
with a leading byte order mark skipped; cli._emit writes every output, to
stdout or to --out, as UTF-8. Anywhere else in the package, each of these
is flagged, since it would decode or encode text by some other rule (the
encoding it names, or the locale's):

- a call to a function named open (open, io.open, codecs.open, Path.open)
  in text mode, that is with no "b" in its mode, whether it reads or writes;
- a call to a function named read_text or write_text;
- sys.stdin or sys.stdout, or their __stdin__ and __stdout__ twins, named
  by a Name or an Attribute node or imported by name;
- a call to input, or to print with no file= stream given.
"""
import ast

from test_dead_code import parse_package

TEXT_IO = {("embeddings.py", "text_file"), ("cli.py", "_emit")}
STREAMS = {"stdin", "stdout", "__stdin__", "__stdout__"}


def called_name(call: ast.Call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def text_mode(call: ast.Call) -> bool:
    """Whether an open call opens in text mode. A mode that is not a string
    literal counts as text: the scan cannot tell."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), ast.Constant("r"))
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and "b" in mode.value)


def flagged(node) -> bool:
    if isinstance(node, ast.Call):
        name = called_name(node)
        return (name == "open" and text_mode(node)
                or name in ("read_text", "write_text", "input")
                or name == "print" and not any(kw.arg == "file" for kw in node.keywords))
    return (isinstance(node, ast.Name) and node.id in STREAMS
            or isinstance(node, ast.Attribute) and node.attr in STREAMS
            or isinstance(node, ast.alias) and node.name in STREAMS)


def allowed_lines(modules: dict) -> set:
    """(file, line) of every line of the text-I/O functions."""
    return {(name, line) for name, tree in modules.items() for node in tree.body
            if isinstance(node, ast.FunctionDef) and (name, node.name) in TEXT_IO
            for line in range(node.lineno, node.end_lineno + 1)}


def stray_text_io(modules: dict) -> list:
    """file:line of every flagged node outside the text-I/O functions."""
    allowed = allowed_lines(modules)
    found = {(name, node.lineno) for name, tree in modules.items() for node in ast.walk(tree)
             if flagged(node) and (name, node.lineno) not in allowed}
    return [f"{name}:{line}" for name, line in sorted(found)]


def test_text_is_read_and_written_only_by_the_text_io_functions():
    modules = parse_package()
    assert {(name, node.name) for name, tree in modules.items() for node in tree.body
            if isinstance(node, ast.FunctionDef)} >= TEXT_IO
    assert stray_text_io(modules) == []


def test_the_scan_flags_text_opened_or_a_stream_used_elsewhere():
    modules = {
        "embeddings.py": ast.parse(
            "import sys\n\n"
            "def text_file(path):\n"
            "    return open(path, encoding='utf-8-sig') if path else sys.stdin\n\n"
            "def load(path):\n"
            "    with open(path, encoding='utf-8') as fh:\n"
            "        return fh.read()\n\n"
            "def cache(path):\n"
            "    with open(path, 'rb') as fh, io.open(path, mode='wb') as out:\n"
            "        out.write(fh.read())\n"),
        "cli.py": ast.parse(
            "import sys\nfrom sys import stdout\n\n"
            "def _emit(text):\n    sys.stdout.write(text)\n\n"
            "def report(path, text, mode):\n"
            "    print(text)\n"
            "    print(text, file=sys.stderr)\n"
            "    sys.__stdout__.write(text)\n"
            "    path.write_text(text)\n"
            "    return open(path, mode), input()\n"),
    }
    assert stray_text_io(modules) == [
        "cli.py:2", "cli.py:8", "cli.py:10", "cli.py:11", "cli.py:12", "embeddings.py:7"
    ]
