"""The character-at-a-time Mini-C lexer, kept as a test-only oracle.

This is the lexer :mod:`repro.lang.lexer` replaced with a single-regex
scanner.  ``tests/lang/test_lexer_reference.py`` checks that both produce
identical token streams, or identical :class:`LexerError` messages and
positions, on random and C-flavoured text.  The only intended
difference is the hex-literal quirk this one has: it reads Unicode
digits (``str.isdigit``) into a hex literal, so ``0x`` followed by no
ASCII hex digit escapes as a ``ValueError`` or yields a value.
"""

from repro.errors import LexerError
from repro.lang.tokens import KEYWORDS, OPERATORS, Token, TokenKind


class ReferenceLexer:
    """Scans Mini-C source text into a list of :class:`Token` objects.

    The lexer handles ``//`` and ``/* */`` comments, decimal / hex /
    octal / character literals, string literals with simple escapes, and
    all Mini-C operators and keywords.
    """

    def __init__(self, source):
        self.source = source
        self.pos = 0
        self.line = 1
        self.column = 1

    def tokenize(self):
        """Return the full token stream, terminated by an EOF token."""
        tokens = []
        while True:
            token = self._next_token()
            tokens.append(token)
            if token.kind is TokenKind.EOF:
                return tokens

    # -- internal helpers ------------------------------------------------

    def _peek(self, offset=0):
        index = self.pos + offset
        if index < len(self.source):
            return self.source[index]
        return ""

    def _advance(self, count=1):
        for _ in range(count):
            if self.pos >= len(self.source):
                return
            if self.source[self.pos] == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
            self.pos += 1

    def _skip_trivia(self):
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "#":
                # Preprocessor-style lines (e.g. ``#define``) are treated
                # as comments: the corpus uses them only for readability.
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start_line, start_col = self.line, self.column
                self._advance(2)
                while self.pos < len(self.source):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    raise LexerError(
                        "unterminated block comment", start_line, start_col
                    )
            else:
                return

    def _next_token(self):
        self._skip_trivia()
        line, column = self.line, self.column
        if self.pos >= len(self.source):
            return Token(TokenKind.EOF, "", line, column)

        ch = self._peek()
        if ch.isascii() and (ch.isalpha() or ch == "_"):
            return self._lex_ident(line, column)
        if ch in "0123456789":
            return self._lex_number(line, column)
        if ch == '"':
            return self._lex_string(line, column)
        if ch == "'":
            return self._lex_char(line, column)

        for spelling, kind in OPERATORS:
            if self.source.startswith(spelling, self.pos):
                self._advance(len(spelling))
                return Token(kind, spelling, line, column)

        raise LexerError(f"unexpected character {ch!r}", line, column)

    def _lex_ident(self, line, column):
        start = self.pos
        while self.pos < len(self.source) and (
            self._peek().isascii()
            and (self._peek().isalnum() or self._peek() == "_")
        ):
            self._advance()
        text = self.source[start : self.pos]
        kind = KEYWORDS.get(text, TokenKind.IDENT)
        return Token(kind, text, line, column)

    def _lex_number(self, line, column):
        start = self.pos
        if self._peek() == "0" and self._peek(1) in "xX":
            self._advance(2)
            while self.pos < len(self.source) and (
                self._peek().isdigit() or self._peek().lower() in "abcdef"
            ):
                self._advance()
            text = self.source[start : self.pos]
            value = int(text, 16)
        else:
            while self.pos < len(self.source) and self._peek() in "0123456789":
                self._advance()
            text = self.source[start : self.pos]
            if text.startswith("0") and len(text) > 1:
                try:
                    value = int(text, 8)
                except ValueError:
                    raise LexerError(
                        f"invalid octal literal {text!r}", line, column
                    ) from None
            else:
                value = int(text)
        # Swallow C integer suffixes (``UL``, ``LL`` ...): Mini-C has one
        # integer type, so the suffix carries no information.
        while self.pos < len(self.source) and self._peek() in "uUlL":
            self._advance()
            text = self.source[start : self.pos]
        return Token(TokenKind.INT_LIT, text, line, column, value)

    _ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\", '"': '"', "'": "'"}

    def _lex_string(self, line, column):
        self._advance()  # opening quote
        chars = []
        while True:
            if self.pos >= len(self.source):
                raise LexerError("unterminated string literal", line, column)
            ch = self._peek()
            if ch == '"':
                self._advance()
                break
            if ch == "\\":
                self._advance()
                esc = self._peek()
                chars.append(self._ESCAPES.get(esc, esc))
                self._advance()
            else:
                chars.append(ch)
                self._advance()
        text = "".join(chars)
        return Token(TokenKind.STRING_LIT, text, line, column, text)

    def _lex_char(self, line, column):
        self._advance()  # opening quote
        ch = self._peek()
        if ch == "\\":
            self._advance()
            ch = self._ESCAPES.get(self._peek(), self._peek())
        self._advance()
        if self._peek() != "'":
            raise LexerError("unterminated character literal", line, column)
        self._advance()
        return Token(TokenKind.CHAR_LIT, ch, line, column, ord(ch))


def reference_tokenize(source):
    """Lex ``source`` with the reference lexer."""
    return ReferenceLexer(source).tokenize()
