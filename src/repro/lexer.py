"""One tokenizer for the package's concrete syntaxes (Core XPath, PPLbin, FO).

A text is split by a single C-level ``findall``; the parser then reads two
parallel lists, the token kinds and the token texts, by index.  A
punctuation token's kind is its name (``lbracket``, ``axis_sep``, ...), a
keyword's kind is the keyword itself, and every other word is a ``name`` (or
a ``variable`` when it carries the grammar's sigil).  Both lists end with an
``end`` token.  Character offsets are only needed for error messages, so
they are computed on the first error rather than for every token.
"""

from __future__ import annotations

import re
import string
from typing import Iterable, Mapping, Optional

from repro.errors import ParseError

#: Kind of the token that closes every token list.
END = "end"

_NAME_START = frozenset(string.ascii_letters + "_")

#: The symbols of the path syntaxes (Core XPath and PPLbin) and their kinds.
PATH_SYMBOLS = {
    "::": "axis_sep",
    "*": "star",
    ".": "dot",
    "/": "slash",
    "[": "lbracket",
    "]": "rbracket",
    "(": "lparen",
    ")": "rparen",
}

#: A word of the path syntaxes: an axis or a name test.
PATH_NAME = r"[A-Za-z_][\w\-.]*"


class Lexer:
    """A tokenizer for one grammar.

    ``punctuation`` maps each symbol to its kind, ``keywords`` are the names
    that are tokens of their own, ``name`` is the regular expression of a
    word (it must start with a letter or ``_``), and ``sigil``, when given,
    prefixes a word to make a ``variable`` token.  Any other non-blank
    character is an error.
    """

    def __init__(
        self,
        punctuation: Mapping[str, str],
        keywords: Iterable[str],
        name: str,
        sigil: Optional[str] = None,
    ) -> None:
        symbols = sorted(punctuation, key=len, reverse=True)
        words = [re.escape(sigil) + name] if sigil else []
        self.pattern = re.compile("|".join([*map(re.escape, symbols), *words, name, r"\S"]))
        self.kinds = {**punctuation, **{keyword: keyword for keyword in keywords}}

    def tokenize(self, text: str) -> tuple[list[str], list[str]]:
        """Return ``(kinds, texts)`` of ``text``'s tokens, ``end`` last.

        Raises
        ------
        ParseError
            At the first character no token starts with.
        """
        texts = self.pattern.findall(text)
        kinds = list(map(self.kinds.get, texts))
        # What the table does not know is a word or a stray character.
        index = -1
        try:
            while True:
                index = kinds.index(None, index + 1)
                word = texts[index]
                if word[0] in _NAME_START:
                    kinds[index] = "name"
                elif len(word) > 1:  # only a sigil word is longer than one character
                    kinds[index] = "variable"
                else:
                    position = self.positions(text)[index]
                    raise ParseError(f"unexpected character {word!r}", position)
        except ValueError:
            pass
        kinds.append(END)
        texts.append("")
        return kinds, texts

    def positions(self, text: str) -> list[int]:
        """The offset of every token of ``text``, then ``len(text)`` for ``end``."""
        return [match.start() for match in self.pattern.finditer(text)] + [len(text)]


class TokenParser:
    """Recursive-descent base: the current token is ``kinds[index]``.

    Subclasses set :attr:`lexer` and read :attr:`kind` (the current token's
    kind) to choose a production.
    """

    lexer: Lexer

    def __init__(self, text: str) -> None:
        self.text = text
        self.kinds, self.texts = self.lexer.tokenize(text)
        self.index = 0
        self.kind = self.kinds[0]
        self._positions: Optional[list[int]] = None

    def position(self, index: Optional[int] = None) -> int:
        """Character offset of token ``index`` (default: the current one)."""
        if self._positions is None:
            self._positions = self.lexer.positions(self.text)
        return self._positions[self.index if index is None else index]

    def at(self, kind: str, offset: int = 0) -> bool:
        """Whether the token ``offset`` places ahead has kind ``kind``."""
        index = self.index + offset
        return index < len(self.kinds) and self.kinds[index] == kind

    def skip(self) -> None:
        """Consume the current token, which the caller knows is not ``end``."""
        self.index += 1
        self.kind = self.kinds[self.index]

    def advance(self) -> str:
        """Consume the current token and return its text."""
        index = self.index
        if self.kind == END:
            raise ParseError("unexpected end of input", len(self.text))
        self.index = index + 1
        self.kind = self.kinds[index + 1]
        return self.texts[index]

    def expect(self, kind: str) -> str:
        """Consume a token of kind ``kind`` and return its text."""
        if self.kind != kind:
            if self.kind == END:
                raise ParseError(
                    f"expected {kind!r} but reached end of input", len(self.text)
                )
            raise self.error(f"expected {kind!r} but found {self.texts[self.index]!r}")
        index = self.index
        self.index = index + 1
        self.kind = self.kinds[index + 1]
        return self.texts[index]

    def error(self, message: str) -> ParseError:
        """A :class:`ParseError` at the current token."""
        return ParseError(message, self.position())

    def finish(self) -> None:
        """Raise unless every token was consumed."""
        if self.kind != END:
            raise self.error(f"unexpected trailing input {self.texts[self.index]!r}")
