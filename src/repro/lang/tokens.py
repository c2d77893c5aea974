"""Token kinds and the Token value object for the Mini-C lexer."""

from enum import Enum, auto
from typing import NamedTuple


class TokenKind(Enum):
    """All token categories produced by :class:`repro.lang.lexer.Lexer`."""

    # Literals and identifiers.
    IDENT = auto()
    INT_LIT = auto()
    STRING_LIT = auto()
    CHAR_LIT = auto()

    # Keywords.
    KW_INT = auto()
    KW_LONG = auto()
    KW_CHAR = auto()
    KW_VOID = auto()
    KW_STRUCT = auto()
    KW_VOLATILE = auto()
    KW_ATOMIC = auto()
    KW_CONST = auto()
    KW_STATIC = auto()
    KW_EXTERN = auto()
    KW_UNSIGNED = auto()
    KW_SIGNED = auto()
    KW_IF = auto()
    KW_ELSE = auto()
    KW_WHILE = auto()
    KW_DO = auto()
    KW_FOR = auto()
    KW_BREAK = auto()
    KW_CONTINUE = auto()
    KW_RETURN = auto()
    KW_GOTO = auto()
    KW_SIZEOF = auto()
    KW_NULL = auto()
    KW_ASM = auto()
    KW_TYPEDEF = auto()
    KW_ENUM = auto()
    KW_SWITCH = auto()
    KW_CASE = auto()
    KW_DEFAULT = auto()

    # Punctuation and operators.
    LPAREN = auto()
    RPAREN = auto()
    LBRACE = auto()
    RBRACE = auto()
    LBRACKET = auto()
    RBRACKET = auto()
    SEMI = auto()
    COMMA = auto()
    COLON = auto()
    QUESTION = auto()
    DOT = auto()
    ARROW = auto()
    PLUS = auto()
    MINUS = auto()
    STAR = auto()
    SLASH = auto()
    PERCENT = auto()
    AMP = auto()
    PIPE = auto()
    CARET = auto()
    TILDE = auto()
    BANG = auto()
    ASSIGN = auto()
    PLUS_ASSIGN = auto()
    MINUS_ASSIGN = auto()
    STAR_ASSIGN = auto()
    SLASH_ASSIGN = auto()
    PERCENT_ASSIGN = auto()
    AMP_ASSIGN = auto()
    PIPE_ASSIGN = auto()
    CARET_ASSIGN = auto()
    SHL_ASSIGN = auto()
    SHR_ASSIGN = auto()
    PLUS_PLUS = auto()
    MINUS_MINUS = auto()
    EQ = auto()
    NE = auto()
    LT = auto()
    GT = auto()
    LE = auto()
    GE = auto()
    AND_AND = auto()
    OR_OR = auto()
    SHL = auto()
    SHR = auto()

    EOF = auto()


#: Maps keyword spellings to their token kinds.
KEYWORDS = {
    "int": TokenKind.KW_INT,
    "long": TokenKind.KW_LONG,
    "char": TokenKind.KW_CHAR,
    "void": TokenKind.KW_VOID,
    "struct": TokenKind.KW_STRUCT,
    "volatile": TokenKind.KW_VOLATILE,
    "_Atomic": TokenKind.KW_ATOMIC,
    "const": TokenKind.KW_CONST,
    "static": TokenKind.KW_STATIC,
    "extern": TokenKind.KW_EXTERN,
    "unsigned": TokenKind.KW_UNSIGNED,
    "signed": TokenKind.KW_SIGNED,
    "if": TokenKind.KW_IF,
    "else": TokenKind.KW_ELSE,
    "while": TokenKind.KW_WHILE,
    "do": TokenKind.KW_DO,
    "for": TokenKind.KW_FOR,
    "break": TokenKind.KW_BREAK,
    "continue": TokenKind.KW_CONTINUE,
    "return": TokenKind.KW_RETURN,
    "goto": TokenKind.KW_GOTO,
    "sizeof": TokenKind.KW_SIZEOF,
    "NULL": TokenKind.KW_NULL,
    "__asm__": TokenKind.KW_ASM,
    "asm": TokenKind.KW_ASM,
    "typedef": TokenKind.KW_TYPEDEF,
    "enum": TokenKind.KW_ENUM,
    "switch": TokenKind.KW_SWITCH,
    "case": TokenKind.KW_CASE,
    "default": TokenKind.KW_DEFAULT,
}


#: Multi-character operators, longest first so the lexer can match greedily.
OPERATORS = [
    ("<<=", TokenKind.SHL_ASSIGN),
    (">>=", TokenKind.SHR_ASSIGN),
    ("->", TokenKind.ARROW),
    ("++", TokenKind.PLUS_PLUS),
    ("--", TokenKind.MINUS_MINUS),
    ("==", TokenKind.EQ),
    ("!=", TokenKind.NE),
    ("<=", TokenKind.LE),
    (">=", TokenKind.GE),
    ("&&", TokenKind.AND_AND),
    ("||", TokenKind.OR_OR),
    ("<<", TokenKind.SHL),
    (">>", TokenKind.SHR),
    ("+=", TokenKind.PLUS_ASSIGN),
    ("-=", TokenKind.MINUS_ASSIGN),
    ("*=", TokenKind.STAR_ASSIGN),
    ("/=", TokenKind.SLASH_ASSIGN),
    ("%=", TokenKind.PERCENT_ASSIGN),
    ("&=", TokenKind.AMP_ASSIGN),
    ("|=", TokenKind.PIPE_ASSIGN),
    ("^=", TokenKind.CARET_ASSIGN),
    ("(", TokenKind.LPAREN),
    (")", TokenKind.RPAREN),
    ("{", TokenKind.LBRACE),
    ("}", TokenKind.RBRACE),
    ("[", TokenKind.LBRACKET),
    ("]", TokenKind.RBRACKET),
    (";", TokenKind.SEMI),
    (",", TokenKind.COMMA),
    (":", TokenKind.COLON),
    ("?", TokenKind.QUESTION),
    (".", TokenKind.DOT),
    ("+", TokenKind.PLUS),
    ("-", TokenKind.MINUS),
    ("*", TokenKind.STAR),
    ("/", TokenKind.SLASH),
    ("%", TokenKind.PERCENT),
    ("&", TokenKind.AMP),
    ("|", TokenKind.PIPE),
    ("^", TokenKind.CARET),
    ("~", TokenKind.TILDE),
    ("!", TokenKind.BANG),
    ("=", TokenKind.ASSIGN),
    ("<", TokenKind.LT),
    (">", TokenKind.GT),
]


class Token(NamedTuple):
    """A single lexical token with its source position."""

    kind: TokenKind
    text: str
    line: int
    column: int
    value: object = None

    def __repr__(self):
        return f"Token({self.kind.name}, {self.text!r}, {self.line}:{self.column})"
