"""Property-based robustness tests for the frontend.

The lexer and parser must be total over their input domains: valid
constructions always round-trip; arbitrary text never crashes with
anything other than the dedicated source-error types.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import LexerError, ParseError, SemanticError
from repro.lang.lexer import tokenize
from repro.lang.parser import parse
from repro.lang.sema import analyze
from repro.lang.tokens import KEYWORDS, TokenKind

identifiers = st.from_regex(r"[a-zA-Z_][a-zA-Z0-9_]{0,10}", fullmatch=True).filter(
    lambda s: s not in KEYWORDS
)


@given(st.lists(st.one_of(
    identifiers,
    st.integers(min_value=0, max_value=10**9).map(str),
    st.sampled_from(["+", "-", "*", "/", "==", "<=", "->", "++", "(", ")",
                     "{", "}", ";", ",", "&&", "||", "<<="]),
    st.sampled_from(sorted(KEYWORDS)),
), max_size=30))
@settings(max_examples=150, deadline=None)
def test_token_stream_roundtrips(parts):
    source = " ".join(parts)
    tokens = tokenize(source)
    assert tokens[-1].kind is TokenKind.EOF
    # Re-lexing the concatenated token texts yields the same kinds.
    rebuilt = " ".join(t.text for t in tokens[:-1])
    again = tokenize(rebuilt)
    assert [t.kind for t in again] == [t.kind for t in tokens]


@given(st.integers(min_value=-(2**40), max_value=2**40))
@settings(max_examples=80, deadline=None)
def test_integer_literals_lex_exactly(value):
    text = str(abs(value))
    token = tokenize(text)[0]
    assert token.value == abs(value)


@given(st.text(max_size=60))
@settings(max_examples=200, deadline=None)
@example("int x = 0x;")  # hex prefixes without a hex digit
@example("0x²")
def test_arbitrary_text_never_crashes_the_frontend(text):
    """Only the dedicated SourceError family may escape."""
    try:
        analyze(parse(text))
    except (LexerError, ParseError, SemanticError):
        pass  # rejected cleanly


@given(st.text(alphabet="(){};=intvoidwhile \n", max_size=80))
@settings(max_examples=150, deadline=None)
def test_c_flavored_soup_never_crashes(text):
    try:
        analyze(parse(text))
    except (LexerError, ParseError, SemanticError):
        pass


@given(identifiers, st.integers(min_value=-1000, max_value=1000))
@settings(max_examples=60, deadline=None)
def test_global_declarations_roundtrip(name, value):
    init = f"(0 - {-value})" if value < 0 else str(value)
    program = analyze(parse(f"int {name} = {init if value >= 0 else value};"))
    decl = program.globals[0]
    assert decl.name == name
