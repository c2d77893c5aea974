"""Parser for the textual IR emitted by :mod:`repro.ir.printer`.

Supports the full printed syntax, so modules round-trip:

    parse_module(print_module(m))  ~  m      (same printed form)

This makes the IR a real interchange format: ``atomig port -o out.ir``
followed by offline inspection, or golden tests over printed IR.
Provenance that the printer does not emit (assert messages, source
lines) is not reconstructed.
"""

import re

from repro.errors import IRError
from repro.ir import instructions as ins
from repro.ir.instructions import MemoryOrder
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.values import Constant, GlobalVar
from repro.lang.ctypes import INT, VOID, ArrayType, PointerType, StructType

_GLOBAL_RE = re.compile(
    r"^global @(?P<name>\w+): (?P<quals>(?:volatile |atomic )*)"
    r"(?P<type>.+?) = (?P<init>.+)$"
)
_FUNC_RE = re.compile(
    r"^func @(?P<name>[\w.]+)\((?P<params>.*)\) -> (?P<ret>.+) \{$"
)
_STRUCT_RE = re.compile(r"^struct (?P<name>\w+) \{ (?P<fields>.*) \}$")
_LABEL_RE = re.compile(r"^(?P<label>[\w.\-]+):$")
_ORDER_NAMES = {order.name.lower(): order for order in MemoryOrder}


class IRParser:
    """Parses one printed module."""

    def __init__(self, text):
        self.lines = [line.rstrip() for line in text.splitlines()]
        self.index = 0
        self.module = Module()
        self.structs = {}

    # -- line plumbing ------------------------------------------------------

    def _next_line(self):
        while self.index < len(self.lines):
            line = self.lines[self.index]
            self.index += 1
            if line.strip():
                return line
        return None

    # -- types ---------------------------------------------------------------

    def parse_type(self, text):
        text = text.strip()
        if text.startswith("struct"):
            match = re.match(r"^struct (\w+)", text)
            name = match.group(1)
            base = self._struct(name)
            rest = text[match.end():]
        elif text.startswith("int"):
            base = INT
            rest = text[3:]
        elif text.startswith("void"):
            base = VOID
            rest = text[4:]
        else:
            raise IRError(f"cannot parse type {text!r}")
        while rest:
            if rest.startswith("*"):
                base = PointerType(base)
                rest = rest[1:]
            elif rest.startswith("["):
                end = rest.index("]")
                base = ArrayType(base, int(rest[1:end]))
                rest = rest[end + 1:]
            else:
                raise IRError(f"trailing type text {rest!r}")
        return base

    def _struct(self, name):
        if name not in self.structs:
            self.structs[name] = StructType(name)
        return self.structs[name]

    # -- top level --------------------------------------------------------------

    def parse(self):
        pending_functions = []
        while True:
            line = self._next_line()
            if line is None:
                break
            stripped = line.strip()
            if stripped.startswith("; module"):
                self.module.name = stripped[len("; module"):].strip()
                continue
            match = _STRUCT_RE.match(stripped)
            if match:
                self._parse_struct(match)
                continue
            match = _GLOBAL_RE.match(stripped)
            if match:
                self._parse_global(match)
                continue
            match = _FUNC_RE.match(stripped)
            if match:
                pending_functions.append(self._scan_function(match))
                continue
            raise IRError(f"unexpected line {stripped!r}")
        # Two phases: create all shells first so calls resolve.
        for header, _body in pending_functions:
            self.module.add_function(header)
        for header, body in pending_functions:
            self._parse_body(header, body)
        self.module.struct_types = dict(self.structs)
        return self.module

    def _parse_struct(self, match):
        struct = self._struct(match.group("name"))
        fields = []
        text = match.group("fields").strip()
        if text:
            for part in _split_top(text):
                fname, ftype = part.split(":", 1)
                fields.append((fname.strip(), self.parse_type(ftype)))
        if not struct.complete:
            struct.define(fields)

    def _parse_global(self, match):
        quals = match.group("quals")
        ctype = self.parse_type(match.group("type"))
        init_text = match.group("init").strip()
        if init_text.startswith("["):
            initializer = [
                int(part) for part in init_text[1:-1].split(",") if part.strip()
            ]
        else:
            initializer = [int(init_text)]
        self.module.add_global(GlobalVar(
            match.group("name"),
            ctype,
            initializer,
            volatile="volatile" in quals,
            atomic="atomic" in quals,
        ))

    def _scan_function(self, match):
        """Read a function's raw body lines; build its shell."""
        param_names, param_types = [], []
        params_text = match.group("params").strip()
        if params_text:
            for part in _split_top(params_text):
                pname, ptype = part.split(":", 1)
                param_names.append(pname.strip().lstrip("%"))
                param_types.append(self.parse_type(ptype))
        function = Function(
            match.group("name"),
            self.parse_type(match.group("ret")),
            param_names,
            param_types,
        )
        body = []
        while True:
            line = self._next_line()
            if line is None:
                raise IRError(f"unterminated function @{function.name}")
            if line.strip() == "}":
                break
            body.append(line)
        return function, body

    # -- function bodies -------------------------------------------------------

    def _parse_body(self, function, body_lines):
        env = {f"%{arg.name}": arg for arg in function.arguments}
        blocks = {}
        order = []
        current = None
        # First pass: create blocks so branches can forward-reference.
        for line in body_lines:
            match = _LABEL_RE.match(line.strip())
            if match and not line.startswith(" "):
                label = match.group("label")
                if label in blocks:
                    raise IRError(
                        f"@{function.name}/{label}: duplicate block label"
                    )
                block = BasicBlock(label, function)
                blocks[label] = block
                order.append(block)
        function.blocks = order
        branch_fixups = []
        for line in body_lines:
            stripped = line.strip()
            match = _LABEL_RE.match(stripped)
            if match and not line.startswith(" "):
                current = blocks[match.group("label")]
                continue
            if current is None:
                raise IRError(f"instruction before any label: {stripped!r}")
            marks = ()
            if ";" in stripped:
                stripped, comment = stripped.split(";", 1)
                stripped = stripped.strip()
                comment = comment.strip()
                if comment.startswith("marks:"):
                    marks = tuple(
                        m.strip() for m in comment[len("marks:"):].split(",")
                    )
            instr = self._parse_instruction(
                stripped, env, blocks, branch_fixups
            )
            instr.marks.update(marks)
            current.append(instr)
        return function

    # -- instructions -------------------------------------------------------------

    def _value(self, token, env):
        token = token.strip()
        if token.startswith("@"):
            gvar = self.module.globals.get(token[1:])
            if gvar is None:
                raise IRError(f"unknown global {token}")
            return gvar
        if token.startswith("%"):
            value = env.get(token)
            if value is None:
                raise IRError(f"use of undefined value {token}")
            return value
        return Constant(int(token), INT)

    def _parse_instruction(self, text, env, blocks, fixups):
        result_name = None
        if re.match(r"^%[\w.\-]+ = ", text):
            result_name, text = text.split(" = ", 1)
            result_name = result_name.strip()
        instr = self._parse_operation(text.strip(), env, blocks)
        if result_name is not None:
            instr.name = result_name.lstrip("%")
            env[result_name] = instr
        return instr

    def _parse_operation(self, text, env, blocks):
        if text.startswith("alloca "):
            return ins.Alloca(self.parse_type(text[len("alloca "):]))
        if text.startswith("load"):
            return self._parse_load(text, env)
        if text.startswith("store"):
            return self._parse_store(text, env)
        if text.startswith("gep "):
            return self._parse_gep(text[4:], env)
        if text.startswith("malloc "):
            return ins.Malloc(self._value(text[7:], env))
        if text.startswith("free "):
            return ins.Free(self._value(text[5:], env))
        if text.startswith("cmpxchg "):
            body, order = text[len("cmpxchg "):].rsplit(" ", 1)
            pointer, expected, desired = [
                self._value(part, env) for part in _split_top(body)
            ]
            return ins.Cmpxchg(pointer, expected, desired,
                               _ORDER_NAMES[order])
        if text.startswith("atomicrmw "):
            rest = text[len("atomicrmw "):]
            op, rest = rest.split(" ", 1)
            body, order = rest.rsplit(" ", 1)
            pointer, value = [
                self._value(part, env) for part in _split_top(body)
            ]
            return ins.AtomicRMW(op, pointer, value, _ORDER_NAMES[order])
        if text.startswith("fence "):
            return ins.Fence(_ORDER_NAMES[text[len("fence "):]])
        if text.startswith("cast "):
            body = text[len("cast "):]
            value_text, type_text = body.split(" to ", 1)
            return ins.Cast(self._value(value_text, env),
                            self.parse_type(type_text))
        if text.startswith("br "):
            return self._parse_branch(text[3:], env, blocks)
        if text == "ret void":
            return ins.Ret()
        if text.startswith("ret "):
            return ins.Ret(self._value(text[4:], env))
        if text.startswith("call @") or " = call @" in text:
            return self._parse_call(text, env)
        if text.startswith("thread_create @"):
            return self._parse_thread_create(text, env)
        if text.startswith("thread_join "):
            return ins.ThreadJoin(self._value(text[len("thread_join "):], env))
        if text.startswith("assert "):
            return ins.AssertInst(self._value(text[len("assert "):], env))
        if text.startswith("print "):
            return ins.PrintInst(self._value(text[len("print "):], env))
        if text.startswith("sleep "):
            return ins.Sleep(self._value(text[len("sleep "):], env))
        if text == "compiler_barrier":
            return ins.CompilerBarrier()
        return self._parse_binop(text, env)

    def _parse_load(self, text, env):
        rest = text[len("load"):].strip()
        order, volatile, rest = self._access_mods(rest)
        return ins.Load(self._value(rest, env), order, volatile)

    def _parse_store(self, text, env):
        rest = text[len("store"):].strip()
        order, volatile, rest = self._access_mods(rest)
        value_text, pointer_text = rest.split(" -> ", 1)
        return ins.Store(
            self._value(pointer_text, env),
            self._value(value_text, env),
            order,
            volatile,
        )

    @staticmethod
    def _access_mods(rest):
        order = MemoryOrder.NOT_ATOMIC
        volatile = False
        changed = True
        while changed:
            changed = False
            match = re.match(r"^atomic\((\w+)\)\s+", rest)
            if match:
                order = _ORDER_NAMES[match.group(1)]
                rest = rest[match.end():]
                changed = True
            if rest.startswith("volatile "):
                volatile = True
                rest = rest[len("volatile "):]
                changed = True
        return order, volatile, rest

    def _parse_gep(self, text, env):
        base_token, rest = self._split_gep_base(text, env)
        base = self._value(base_token, env)
        path = []
        current_type = base.ctype
        while rest:
            if rest.startswith("."):
                match = re.match(r"^\.(\w+)", rest)
                field = match.group(1)
                struct = self._pointee(current_type)
                index = struct.field_index(field)
                path.append(("field", struct, index))
                current_type = PointerType(struct.fields[index][1])
                rest = rest[match.end():]
            elif rest.startswith("["):
                end = rest.index("]")
                operand = self._value(rest[1:end], env)
                element = self._element_of(current_type)
                path.append(("index", element, operand))
                current_type = PointerType(element)
                rest = rest[end + 1:]
            else:
                raise IRError(f"bad gep path {rest!r}")
        return ins.Gep(base, path, self._pointee(current_type))

    def _split_gep_base(self, text, env):
        """Split a gep body into (base token, path text).

        Value names may themselves contain dots (``%v.addr``,
        ``%inl.data.3``), so the base is the *longest* known value name
        that prefixes the text and is followed by a path step (``.`` or
        ``[``) or nothing.
        """
        candidates = []
        if text.startswith("@"):
            for name in self.module.globals:
                candidates.append(f"@{name}")
        else:
            candidates.extend(env)
        best = None
        for token in candidates:
            if not text.startswith(token):
                continue
            rest = text[len(token):]
            if rest and rest[0] not in ".[":
                continue
            if best is None or len(token) > len(best):
                best = token
        if best is None:
            raise IRError(f"bad gep base in {text!r}")
        return best, text[len(best):]

    @staticmethod
    def _pointee(ctype):
        if isinstance(ctype, PointerType):
            return ctype.pointee
        return ctype

    @staticmethod
    def _element_of(ctype):
        pointee = (
            ctype.pointee if isinstance(ctype, PointerType) else ctype
        )
        if isinstance(pointee, ArrayType):
            return pointee.element
        return pointee

    def _parse_branch(self, text, env, blocks):
        if " ? " in text:
            cond_text, arms = text.split(" ? ", 1)
            true_label, false_label = [
                part.strip() for part in arms.split(" : ", 1)
            ]
            return ins.CondBr(
                self._value(cond_text, env),
                blocks[true_label],
                blocks[false_label],
            )
        return ins.Br(blocks[text.strip()])

    def _parse_call(self, text, env):
        match = re.match(r"^call @([\w.\-]+)\((.*)\)$", text)
        callee = self.module.functions.get(match.group(1))
        if callee is None:
            raise IRError(f"call to unknown function @{match.group(1)}")
        args_text = match.group(2).strip()
        args = [
            self._value(part, env) for part in _split_top(args_text)
        ] if args_text else []
        return ins.Call(callee, args)

    def _parse_thread_create(self, text, env):
        match = re.match(r"^thread_create @([\w.\-]+)\((.*)\)$", text)
        callee = self.module.functions.get(match.group(1))
        if callee is None:
            raise IRError(
                f"thread_create of unknown function @{match.group(1)}"
            )
        arg_text = match.group(2).strip()
        arg = self._value(arg_text, env) if arg_text else None
        return ins.ThreadCreate(callee, arg)

    _BINOPS = sorted(
        ins.BinOp.ARITH | ins.BinOp.COMPARE, key=len, reverse=True
    )

    def _parse_binop(self, text, env):
        for op in self._BINOPS:
            separator = f" {op} "
            if separator in text:
                left_text, right_text = text.split(separator, 1)
                return ins.BinOp(
                    op,
                    self._value(left_text, env),
                    self._value(right_text, env),
                )
        raise IRError(f"cannot parse instruction {text!r}")


def _split_top(text):
    """Split on commas that are not nested inside brackets/parens."""
    parts, depth, start = [], 0, 0
    for index, char in enumerate(text):
        if char in "([{":
            depth += 1
        elif char in ")]}":
            depth -= 1
        elif char == "," and depth == 0:
            parts.append(text[start:index])
            start = index + 1
    tail = text[start:].strip()
    if tail:
        parts.append(tail)
    return parts


def parse_module(text):
    """Parse printed IR text back into a verified :class:`Module`."""
    from repro.ir.verifier import verify_module

    module = IRParser(text).parse()
    verify_module(module)
    return module
