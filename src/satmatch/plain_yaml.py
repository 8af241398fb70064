"""Plain YAML: the subset of YAML that market files are written in, read in
one pass over the lines, with no YAML events.

`read` gives exactly what PyYAML's safe loader gives for a plain text, or
None for any other text, which is then left to PyYAML. A text is plain
when it holds:

- printable ASCII and line ends (LF or CR LF) only;
- at most a first line that is exactly "---", then a block mapping at
  column 0, holding block mappings and block sequences (indentless ones
  too), at most 4 block levels in all;
- block values that are scalars, flow sequences of scalars or of flat flow
  sequences, or flat flow mappings; a flow value may wrap after "[", "{"
  or "," onto lines indented deeper than its first line;
- plain scalars matching `_PLAIN` that the loader makes a str or an int,
  and one-line quoted scalars with no escape;
- keys of at most 1,000 characters (YAML allows 1,024);
- full-line comments, blank lines, and a comment after a key or after a
  value that holds no quote.

So a lone CR, "%", "...", anchors, aliases, tags, a comment after a quote,
an empty value, a deeper flow nest or any other text reads as None.
`market_io` imports this module on its first read, so a process that reads
no market does not compile it.
"""

from __future__ import annotations

import re
from typing import Any, Callable


class _NotPlain(Exception):
    """Raised where the text leaves the plain subset."""


_PLAIN = r"[A-Za-z0-9_][A-Za-z0-9_.-]*"  # holds no YAML indicator
_QUOTED = r"'[^'\n]*'|\"[^\"\\\n]*\""
_PRINTABLE = bytes(range(32, 127)) + b"\r\n"  # the only bytes a plain text holds

# a block line: its indent, then "- ", a key and ":", a comment or nothing,
# then the rest of the line
_block_line = re.compile(
    rf"( *)(?:(- +)|({_PLAIN}|{_QUOTED}):(?: +|$)|#|$)(.*)\n?", re.M
).match
_more_line = re.compile(r"( *)(.*)\n?").match  # a line that goes on a flow value
_plain_scalar = re.compile(_PLAIN).fullmatch
_plain_list = re.compile(rf"\[({_PLAIN}(?:, {_PLAIN})*)\]").fullmatch
# one flow token per match: 1 plain, 2 and 3 quoted, 4 an indicator, 5 ": "
# right after the key before it, 6 anything else
_flow_tokens = re.compile(
    rf"[ \n]*(?:({_PLAIN})|'([^'\n]*)'|\"([^\"\\\n]*)\"|([][{{}},]))|(: )|(.)"
).finditer


def _trimmed(rest: str) -> str:
    """`rest`, the part of a line after its indent, key or "- ", without
    its trailing spaces, and without the comment at its end if it holds no
    quote: then a "#" that starts it or follows a space starts a comment.
    A quoted scalar may hold " #", so a `rest` with a quote keeps its "#"
    for the tokens to refuse."""
    if "#" in rest and "'" not in rest and '"' not in rest:
        rest = (" " + rest).partition(" #")[0][1:]
    return rest.rstrip(" ")


def _flow(
    tokens: list, k: int, opens: str, plain: Callable[[str], Any]
) -> tuple[Any, int]:
    """The value that starts at tokens[k], and the index of the token after
    it. A collection may open there only with a character in `opens`;
    `plain` makes each plain scalar."""
    kind, token = tokens[k]
    if kind == 1:
        return plain(token), k + 1
    if kind < 4:
        return token, k + 1
    if kind > 4 or token not in opens:
        raise _NotPlain
    close, out = ("]", []) if token == "[" else ("}", {})
    inner = "[" if opens == "[{" and close == "]" else ""
    k += 1
    while tokens[k] != (4, close):
        if out.__class__ is list:
            item, k = _flow(tokens, k, inner, plain)
            out.append(item)
        else:
            kind, key = tokens[k]
            if kind > 3 or len(key) > 1000 or tokens[k + 1][0] != 5:
                raise _NotPlain
            key = _flow(tokens, k, "", plain)[0]
            out[key], k = _flow(tokens, k + 2, "", plain)
        if tokens[k] == (4, ","):
            k += 1
            if tokens[k] == (4, close):  # "[a,]": leave it to YAML
                raise _NotPlain
        elif tokens[k] != (4, close):
            raise _NotPlain
    return out, k + 1


def read(text: str, resolve: Callable[[str], Any]) -> Any:
    """The data of `text` when it is plain, else None. `resolve` makes one
    plain scalar as the loader does; a scalar it makes into anything but a
    str or an int leaves the text to YAML."""
    if not text.isascii() or text.encode().translate(None, _PRINTABLE):
        return None
    if "\r" in text:  # CR LF ends a line as LF does; a lone CR is not plain
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    made: dict[str, Any] = {}  # each plain scalar read and what it makes
    made_get = made.get

    def plain(value: str) -> Any:
        out = made_get(value)
        if out is None:
            out = made[value] = resolve(value)
            if out.__class__ is not str and out.__class__ is not int:
                raise _NotPlain
        return out

    def value(rest: str) -> Any:
        m = _plain_list(rest)
        if m is not None:  # the usual list: one line, plain scalars
            # a comprehension sizes each list as appending does: tighter
            # than list() of a map, and faster
            return [plain(item) for item in m[1].split(", ")]
        if _plain_scalar(rest):
            return plain(rest)
        tokens = [(m.lastindex, m[m.lastindex]) for m in _flow_tokens(rest)]
        tokens.append((6, ""))
        out, k = _flow(tokens, 0, "[{", plain)
        if k != len(tokens) - 1:
            raise _NotPlain
        return out

    root: dict = {}
    stack: list = []  # the block collections that enclose top, outermost first
    top, top_indent, in_list = root, 0, False  # the innermost one
    pending = None  # a key of top whose value starts on a later line
    pos, size = (4 if text.startswith("---\n") else 0), len(text)
    try:
        while pos < size:
            m = _block_line(text, pos)
            if m is None:
                raise _NotPlain
            pos = m.end()
            spaces, dash, key, rest = m.groups()
            if dash is None and key is None:
                continue  # a blank line or a comment
            indent = len(spaces)
            rest = _trimmed(rest)
            while rest and rest[-1] in ",[{":  # a flow value goes on
                m = _more_line(text, pos)
                pos = m.end()
                body = _trimmed(m[2])
                if not body or len(m[1]) <= indent:
                    raise _NotPlain
                rest += "\n" + body
            if pending is not None:
                if len(stack) == 3 or not (
                    indent > top_indent or dash and indent == top_indent
                ):
                    raise _NotPlain  # too deep, or an empty value
                top[pending] = inner = [] if dash else {}
                stack.append((top, top_indent))
                top, top_indent, in_list = inner, indent, dash is not None
                pending = None
            elif indent != top_indent or in_list != (dash is not None):
                # the root is a mapping at indent 0, so this ends there
                while top_indent > indent or in_list and key is not None:
                    top, top_indent = stack.pop()
                    in_list = top.__class__ is list
                if top_indent != indent or in_list != (dash is not None):
                    raise _NotPlain
            if dash is None:
                if len(key) > 1000:
                    raise _NotPlain
                key = key[1:-1] if key[0] in "'\"" else plain(key)
                if rest:
                    top[key] = value(rest)
                else:
                    pending = key
            elif rest:
                top.append(value(rest))
            else:
                raise _NotPlain
        if pending is not None or not root:
            raise _NotPlain
        return root
    except _NotPlain:
        return None
