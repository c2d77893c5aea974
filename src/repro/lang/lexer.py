"""Single-regex lexer for Mini-C source text."""

import re

from repro.errors import LexerError
from repro.lang.tokens import KEYWORDS, OPERATORS, Token, TokenKind

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\", '"': '"', "'": "'"}
_OPERATOR_KINDS = dict(OPERATORS)

# One match skips the blanks before an item and matches the item.  Each
# alternative is one capturing group, so ``Match.lastindex`` names the
# item's class.  Character classes are spelled out in ASCII: ``\d`` and
# ``\w`` would also accept non-ASCII digits and letters.  Operators keep
# the longest-first order of ``OPERATORS``, so alternation matches
# greedily; the one-character ones share a class.  ``(/\*)`` only
# matches a block comment that never closes.
(_COMMENT, _OPEN_COMMENT, _IDENT, _OPERATOR, _NUMBER, _DIGITS, _STRING,
 _CHAR, _END) = range(1, 10)
_OPERATOR_PATTERN = "|".join(
    [re.escape(spelling) for spelling, _ in OPERATORS if len(spelling) > 1]
    + ["[" + "".join(re.escape(spelling) for spelling, _ in OPERATORS
                     if len(spelling) == 1) + "]"]
)
_STEP = re.compile(
    r"[ \t\r\n]*(?:"
    r"(//[^\n]*|\#[^\n]*|/\*[\s\S]*?\*/)"
    r"|(/\*)"
    r"|([A-Za-z_][A-Za-z0-9_]*)"
    r"|(" + _OPERATOR_PATTERN + r")"
    r"|((0[xX][0-9A-Fa-f]*|[0-9]+)[uUlL]*)"
    r'|("(?:[^"\\]|\\[\s\S])*")'
    r"|('(?:\\[\s\S]|[^\\])')"
    r"|(\Z))"
)
_BLANKS = re.compile(r"[ \t\r\n]*")
_ESCAPE = re.compile(r"\\([\s\S])")


def _unescape(match):
    return _ESCAPES.get(match[1], match[1])


class Lexer:
    """Scans Mini-C source text into a list of :class:`Token` objects.

    The lexer handles ``//`` and ``/* */`` comments, ``#`` lines,
    decimal / hex / octal / character literals, string literals with
    simple escapes, and all Mini-C operators and keywords.  Positions
    are 1-based; a column counts characters from the last newline.
    """

    def __init__(self, source):
        self.source = source

    def tokenize(self):
        """Return the full token stream, terminated by an EOF token."""
        source = self.source
        step = _STEP.match
        count = source.count
        tokens = []
        append = tokens.append
        keyword = KEYWORDS.get
        operator = _OPERATOR_KINDS.__getitem__
        ident = TokenKind.IDENT
        pos = 0
        line = 1
        line_start = 0  # offset of the current line's first character
        while True:
            match = step(source, pos)
            if match is None:
                raise self._error(pos, line, line_start)
            group = match.lastindex
            start, end = match.span(group)
            if count("\n", pos, start):
                line += count("\n", pos, start)
                line_start = source.rindex("\n", pos, start) + 1
            pos = end
            column = start - line_start + 1
            if group == _IDENT:
                text = source[start:end]
                append(Token(keyword(text, ident), text, line, column))
            elif group == _OPERATOR:
                text = source[start:end]
                append(Token(operator(text), text, line, column))
            elif group == _NUMBER:
                append(self._number(match, line, column))
            elif group == _END:
                append(Token(TokenKind.EOF, "", line, column))
                return tokens
            elif group == _OPEN_COMMENT:
                raise LexerError("unterminated block comment", line, column)
            else:
                if group == _STRING:
                    text = source[start + 1 : end - 1]
                    if "\\" in text:
                        text = _ESCAPE.sub(_unescape, text)
                    append(Token(TokenKind.STRING_LIT, text, line, column, text))
                elif group == _CHAR:
                    ch = source[start + 1]
                    if ch == "\\":
                        ch = _ESCAPES.get(source[start + 2], source[start + 2])
                    append(Token(TokenKind.CHAR_LIT, ch, line, column, ord(ch)))
                # Comments, strings and character literals may span lines.
                if count("\n", start, end):
                    line += count("\n", start, end)
                    line_start = source.rindex("\n", start, end) + 1

    def _number(self, match, line, column):
        digits = match[_DIGITS]
        if digits[1:2] in ("x", "X"):
            if len(digits) == 2:
                raise LexerError(f"invalid hex literal {digits!r}", line, column)
            value = int(digits, 16)
        elif digits[0] == "0" and len(digits) > 1:
            try:
                value = int(digits, 8)
            except ValueError:
                raise LexerError(
                    f"invalid octal literal {digits!r}", line, column
                ) from None
        else:
            value = int(digits)
        # C integer suffixes (``UL``, ``LL`` ...) stay in the text but
        # carry no information: Mini-C has one integer type.
        return Token(TokenKind.INT_LIT, match[_NUMBER], line, column, value)

    def _error(self, pos, line, line_start):
        """The error for the item after the blanks at ``pos``, which
        no alternative of the step pattern matched."""
        start = _BLANKS.match(self.source, pos).end()
        if self.source.count("\n", pos, start):
            line += self.source.count("\n", pos, start)
            line_start = self.source.rindex("\n", pos, start) + 1
        column = start - line_start + 1
        ch = self.source[start]
        if ch == '"':
            return LexerError("unterminated string literal", line, column)
        if ch == "'":
            return LexerError("unterminated character literal", line, column)
        return LexerError(f"unexpected character {ch!r}", line, column)


def tokenize(source):
    """Convenience wrapper: lex ``source`` and return the token list."""
    return Lexer(source).tokenize()
