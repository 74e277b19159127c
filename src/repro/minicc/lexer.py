"""Lexer for MiniC, the C subset used to author workload binaries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

KEYWORDS = {
    "int", "int32", "char", "void", "if", "else", "while", "for", "do",
    "return", "break", "continue", "switch", "case", "default", "sizeof",
}

# Longest-match-first operator table.
OPERATORS = [
    "<<=", ">>=", "...",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--", "->",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^",
    "(", ")", "{", "}", "[", "]", ";", ",", "?", ":",
]


@dataclass
class Token:
    """One lexical token: kind, text and source position."""
    kind: str       # 'int', 'ident', 'kw', 'op', 'str', 'char', 'eof'
    text: str
    value: int = 0
    line: int = 0


class LexError(Exception):
    """Raised on unrecognised input characters."""
    pass


def tokenize(source: str) -> List[Token]:
    """Split MiniC source into a token list (comments stripped)."""
    tokens: List[Token] = []
    i = 0
    line = 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            continue
        if source.startswith("//", i):
            end = source.find("\n", i)
            i = n if end < 0 else end
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                raise LexError(f"line {line}: unterminated comment")
            line += source.count("\n", i, end)
            i = end + 2
            continue
        if ch.isdigit():
            j = i
            if source.startswith("0x", i) or source.startswith("0X", i):
                j = i + 2
                while j < n and source[j] in "0123456789abcdefABCDEF":
                    j += 1
                value = int(source[i:j], 16)
            else:
                while j < n and source[j].isdigit():
                    j += 1
                value = int(source[i:j])
            tokens.append(Token("int", source[i:j], value, line))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = "kw" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, 0, line))
            i = j
            continue
        if ch == '"':
            j = i + 1
            out = []
            while j < n and source[j] != '"':
                out.append(_escape(source, j))
                j += 2 if source[j] == "\\" else 1
            if j >= n:
                raise LexError(f"line {line}: unterminated string")
            tokens.append(Token("str", "".join(out), 0, line))
            i = j + 1
            continue
        if ch == "'":
            j = i + 1
            if j >= n:
                raise LexError(f"line {line}: unterminated char literal")
            literal = _escape(source, j)
            j += 2 if source[j] == "\\" else 1
            if j >= n or source[j] != "'":
                raise LexError(f"line {line}: unterminated char literal")
            tokens.append(Token("char", literal, ord(literal), line))
            i = j + 1
            continue
        for op in OPERATORS:
            if source.startswith(op, i):
                tokens.append(Token("op", op, 0, line))
                i += len(op)
                break
        else:
            raise LexError(f"line {line}: unexpected character {ch!r}")
    tokens.append(Token("eof", "", 0, line))
    return tokens


def _escape(source: str, index: int) -> str:
    ch = source[index]
    if ch != "\\":
        return ch
    nxt = source[index + 1]
    return {"n": "\n", "t": "\t", "r": "\r", "0": "\0",
            "\\": "\\", "'": "'", '"': '"'}.get(nxt, nxt)
