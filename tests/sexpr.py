"""Render an expression AST as a parenthesised prefix form, so tests can
state a parse's shape (precedence, associativity) in one string:
``a - b * c`` parses to ``(- a (* b c))``."""

from repro.ir import Binary, Call, Cast, Conditional, FloatLit, Ident, Index, IntLit, Unary


def sexpr(node) -> str:
    if isinstance(node, Ident):
        return node.name
    if isinstance(node, (IntLit, FloatLit)):
        return repr(node.value)
    if isinstance(node, Binary):
        return f"({node.op} {sexpr(node.left)} {sexpr(node.right)})"
    if isinstance(node, Unary):
        return f"({node.op} {sexpr(node.operand)})"
    if isinstance(node, Conditional):
        return f"(? {sexpr(node.cond)} {sexpr(node.then)} {sexpr(node.other)})"
    if isinstance(node, Cast):
        return f"(cast {node.type} {sexpr(node.operand)})"
    if isinstance(node, Call):
        return f"({node.name} {' '.join(sexpr(a) for a in node.args)})"
    if isinstance(node, Index):
        return f"([] {sexpr(node.base)} {' '.join(sexpr(i) for i in node.indices)})"
    raise TypeError(f"no prefix form for {type(node).__name__}")
