"""The PENMAN parser as it was before `amr.parse_penman` tokenized with one
regular expression: a scanner that reads one character at a time, keeping
line and column as it goes. The parser tests compare `amr.parse_penman`
with it: the same graph, or the same error message, line and column."""
from amrgen.amr import AmrGraph, PenmanParseError

_ATOM_BREAK = set('()/"')


def _tokenize(text):
    """Yield (kind, value, line, col); kinds: ( ) / atom str."""
    line, col, i, n = 1, 1, 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c.isspace():
            col += 1
            i += 1
        elif c in "()/":
            yield (c, c, line, col)
            col += 1
            i += 1
        elif c == '"':
            start_line, start_col = line, col
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\n":
                    raise PenmanParseError("unterminated string", start_line, start_col)
                j += 1
            if j >= n:
                raise PenmanParseError("unterminated string", start_line, start_col)
            yield ("str", text[i + 1 : j], start_line, start_col)
            col += j - i + 1
            i = j + 1
        else:
            start_line, start_col = line, col
            j = i
            while j < n and not text[j].isspace() and text[j] not in _ATOM_BREAK:
                j += 1
            yield ("atom", text[i:j], start_line, start_col)
            col += j - i
            i = j


def parse_penman(text: str) -> AmrGraph:
    """The parser of amr.parse_penman, reading the character scanner's tokens."""
    if not text or not text.strip():
        raise PenmanParseError("empty input", 1, 1)
    toks = list(_tokenize(text))
    pos = 0  # cursor into toks

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take():
        nonlocal pos
        tok = peek()
        if tok is not None:
            pos += 1
        return tok

    defs = {}  # var -> concept label
    order = []  # vars in definition order
    triples = []  # (parent_var, relation, ('ref'|'const', value))
    last = toks[-1]

    def expect(kind, what):
        tok = take()
        if tok is None:
            raise PenmanParseError(f"expected {what}, found end of input", last[2], last[3])
        if tok[0] != kind:
            raise PenmanParseError(f"expected {what}, found {tok[1]!r}", tok[2], tok[3])
        return tok

    def parse_node():
        open_tok = expect("(", "'('")
        var_tok = expect("atom", "variable name")
        var = var_tok[1]
        slash = peek()
        if slash is None or slash[0] != "/":
            raise PenmanParseError(
                f"expected '/' after variable {var!r}", var_tok[2], var_tok[3]
            )
        take()
        concept_tok = take()
        if concept_tok is None or concept_tok[0] not in ("atom", "str"):
            tok = concept_tok or last
            raise PenmanParseError("expected concept after '/'", tok[2], tok[3])
        if var in defs:
            raise PenmanParseError(
                f"duplicate definition of variable {var!r}", var_tok[2], var_tok[3]
            )
        if "#" in var or var.startswith("_c") and var[2:].isdigit():
            raise PenmanParseError(
                f"variable name {var!r} is reserved for the ids the program makes",
                var_tok[2],
                var_tok[3],
            )
        defs[var] = concept_tok[1]
        order.append(var)
        while True:
            tok = peek()
            if tok is None:
                raise PenmanParseError(
                    "unbalanced parentheses: missing ')'", open_tok[2], open_tok[3]
                )
            if tok[0] == ")":
                take()
                return var
            if tok[0] != "atom" or not tok[1].startswith(":"):
                raise PenmanParseError(
                    f"expected relation starting with ':', found {tok[1]!r}",
                    tok[2],
                    tok[3],
                )
            role = take()[1]
            target = peek()
            if target is None:
                raise PenmanParseError(
                    f"expected target after relation {role!r}", tok[2], tok[3]
                )
            if target[0] == "(":
                child = parse_node()
                triples.append((var, role, ("ref", child)))
            elif target[0] == "str":
                take()
                triples.append((var, role, ("const", target[1])))
            elif target[0] == "atom":
                take()
                # resolved after parsing: defined variables are references,
                # anything else is a constant
                triples.append((var, role, ("maybe", target[1])))
            else:
                raise PenmanParseError(
                    f"unexpected token {target[1]!r} after relation {role!r}",
                    target[2],
                    target[3],
                )

    root = parse_node()
    trailing = peek()
    if trailing is not None:
        raise PenmanParseError(
            f"unbalanced parentheses: unexpected {trailing[1]!r} after graph",
            trailing[2],
            trailing[3],
        )

    nodes = [(v, defs[v]) for v in order]
    edges = []
    const_index = 0
    for parent, role, (kind, value) in triples:
        if kind == "ref" or (kind == "maybe" and value in defs):
            edges.append((parent, role, value))
        else:
            # constant occurrence: a fresh leaf node per occurrence
            node_id = f"_c{const_index}"
            const_index += 1
            nodes.append((node_id, value))
            edges.append((parent, role, node_id))
    return AmrGraph(nodes=tuple(nodes), edges=tuple(edges), root=root)
