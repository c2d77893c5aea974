"""IR containers: basic blocks, functions and modules.

A :class:`Module` corresponds to the paper's *link-time* unit: the whole
application linked into one IR module, which is the scope at which
AtoMig's alias exploration runs.
"""

import copy

from repro.errors import IRError
from repro.ir import instructions as ins
from repro.ir.values import Argument, Constant, GlobalVar


class BasicBlock:
    """A straight-line sequence of instructions ending in a terminator."""

    def __init__(self, label, function=None):
        self.label = label
        self.function = function
        self.instructions = []

    def append(self, instr):
        self.instructions.append(instr)
        instr.block = self
        return instr

    def insert(self, index, instr):
        self.instructions.insert(index, instr)
        instr.block = self
        return instr

    @property
    def terminator(self):
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def successors(self):
        terminator = self.terminator
        if terminator is None:
            return []
        return terminator.successors()

    def __repr__(self):
        return f"BasicBlock({self.label}, {len(self.instructions)} instrs)"


class Function:
    """A function definition with its CFG of basic blocks."""

    def __init__(self, name, return_type, param_names, param_types):
        self.name = name
        self.return_type = return_type
        self.arguments = [
            Argument(pname, ptype, index, self)
            for index, (pname, ptype) in enumerate(zip(param_names, param_types))
        ]
        self.blocks = []
        self._label_counter = 0
        self._value_counter = 0

    @property
    def entry(self):
        if not self.blocks:
            raise IRError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def new_block(self, hint="bb"):
        # The counter is unique per function.  Without the separator a
        # hint ending in a digit could spell another hint's label
        # ("label.a1" + "1" == "label.a" + "11"); with it, the counter
        # is always the label's maximal trailing digit run, so the
        # labels this method hands out never collide.
        separator = "." if hint[-1:].isdigit() else ""
        label = f"{hint}{separator}{self._label_counter}"
        self._label_counter += 1
        block = BasicBlock(label, self)
        self.blocks.append(block)
        return block

    def next_value_name(self):
        self._value_counter += 1
        return str(self._value_counter)

    def instructions(self):
        """Iterate over all instructions in block order."""
        for block in self.blocks:
            yield from block.instructions

    def block_map(self):
        return {block.label: block for block in self.blocks}

    def __repr__(self):
        return f"Function(@{self.name}, {len(self.blocks)} blocks)"


class Module:
    """A linked program: globals, struct types and function definitions."""

    def __init__(self, name="module"):
        self.name = name
        self.globals = {}
        self.functions = {}
        self.struct_types = {}
        #: Arbitrary metadata recorded by passes (e.g. porting reports).
        self.metadata = {}

    #: Names of the functions whose objects another module may also
    #: hold (:meth:`fork`); a pass owns (:meth:`own`) one before writing it.
    _shared = frozenset()
    #: callee name -> names of the functions that call or spawn it;
    #: built once per module when first needed (:meth:`know_callers`),
    #: kept current by :meth:`note_call`.
    _callers = None

    def add_global(self, global_var):
        if global_var.name in self.globals:
            raise IRError(f"duplicate global @{global_var.name}")
        self.globals[global_var.name] = global_var
        return global_var

    def add_function(self, function):
        if function.name in self.functions:
            raise IRError(f"duplicate function @{function.name}")
        self.functions[function.name] = function
        return function

    def instructions(self):
        for function in self.functions.values():
            yield from function.instructions()

    # -- copying ---------------------------------------------------------

    def fork(self):
        """A copy-on-write copy: both modules hold the same functions.

        Functions and globals are shared objects (no pass writes a
        global); metadata is deep-copied, as by :meth:`clone`.  From
        here on neither module may write a shared function in place: a
        pass first owns (:meth:`own`) the functions it will write.
        """
        new = Module(self.name)
        new.globals = dict(self.globals)
        new.functions = dict(self.functions)
        new.struct_types = self.struct_types
        new.metadata = copy.deepcopy(self.metadata)
        self._shared = set(self.functions)
        new._shared = set(self.functions)
        return new

    def own(self, names):
        """Copy the shared functions among ``names`` into this module.

        Every still-shared function that calls or spawns an owned one
        is owned too, transitively, and every call into an owned
        function is re-pointed at its copy, so ``call.callee`` stays
        ``self.functions[call.callee.name]`` throughout the module.  A
        copy keeps every block label and instruction index.  Returns
        the old -> new map of the copies' blocks, instructions and
        arguments (globals map to themselves); empty when nothing
        among ``names`` was shared.  Analyses built before the call
        hold the old objects: translate with ``mapping.get(x, x)``.
        """
        shared = self._shared
        pending = [name for name in names if name in shared]
        if not pending:
            return {}
        owned = set(pending)
        private = len(shared) < len(self.functions)
        if private or not shared <= owned:
            callers = self._callers_map()
            while pending:
                for caller in callers.get(pending.pop(), ()):
                    if caller in shared and caller not in owned:
                        owned.add(caller)
                        pending.append(caller)
        shared -= owned

        value_map = {gvar: gvar for gvar in self.globals.values()}
        sources = [self.functions[name] for name in owned]
        # Shells first, so the copies' calls resolve to the copies.
        for source in sources:
            shell = Function(
                source.name,
                source.return_type,
                [arg.name for arg in source.arguments],
                [arg.ctype for arg in source.arguments],
            )
            self.functions[source.name] = shell
            for old_arg, new_arg in zip(source.arguments, shell.arguments):
                value_map[old_arg] = new_arg
        for source in sources:
            _clone_function_body(
                source, self.functions[source.name], self, value_map
            )
        if private:
            repoint = {
                caller
                for name in owned
                for caller in self._callers.get(name, ())
                if caller not in owned
            }
            for caller in repoint:
                for instr in self.functions[caller].instructions():
                    if isinstance(instr, (ins.Call, ins.ThreadCreate)):
                        instr.callee = self.functions[instr.callee.name]
        return value_map

    def own_holders(self, instructions):
        """:meth:`own` the functions that hold ``instructions``."""
        return self.own({instr.block.function.name for instr in instructions})

    def holds(self, functions):
        """True while every ``name -> function`` of ``functions`` is
        still this module's function of that name: what was built over
        them describes the module until one is owned (:meth:`own`)."""
        return all(self.functions.get(name) is function
                   for name, function in functions.items())

    def note_call(self, caller, callee):
        """Record that function ``caller`` now calls ``callee``."""
        if self._callers is not None:
            self._callers.setdefault(callee, set()).add(caller)

    def know_callers(self, edges):
        """Build the callers map from ``(caller, callee)`` pairs that
        cover every call and spawn of the module (a pass that has just
        built a call graph saves :meth:`own` the walk); a map already
        built is kept."""
        if self._callers is None:
            callers = self._callers = {}
            for caller, callee in edges:
                callers.setdefault(callee, set()).add(caller)

    def _callers_map(self):
        self.know_callers(
            (function.name, instr.callee.name)
            for function in self.functions.values()
            for block in function.blocks
            for instr in block.instructions
            if isinstance(instr, (ins.Call, ins.ThreadCreate))
        )
        return self._callers

    def clone(self):
        """Deep-copy the module: a fully disjoint copy.

        Globals, functions, blocks and instructions are all fresh
        objects; operand references are remapped onto their clones.
        Struct types are shared (they are immutable after sema).  The
        passes write through :meth:`fork` and :meth:`own` instead,
        which copy only the functions they write.
        """
        new = Module(self.name)
        new.struct_types = self.struct_types
        new.metadata = copy.deepcopy(self.metadata)

        value_map = {}
        for gvar in self.globals.values():
            cloned = GlobalVar(
                gvar.name,
                gvar.value_type,
                list(gvar.initializer),
                volatile=gvar.volatile,
                atomic=gvar.atomic,
            )
            new.add_global(cloned)
            value_map[gvar] = cloned

        # First create empty function shells so calls can be remapped.
        for fn in self.functions.values():
            shell = Function(
                fn.name,
                fn.return_type,
                [arg.name for arg in fn.arguments],
                [arg.ctype for arg in fn.arguments],
            )
            new.add_function(shell)
            for old_arg, new_arg in zip(fn.arguments, shell.arguments):
                value_map[old_arg] = new_arg

        for fn in self.functions.values():
            _clone_function_body(fn, new.functions[fn.name], new, value_map)
        return new


def _clone_function_body(source, target, new_module, value_map):
    block_map = {}
    for block in source.blocks:
        clone = BasicBlock(block.label, target)
        target.blocks.append(clone)
        block_map[block] = clone
        value_map[block] = clone
    target._label_counter = source._label_counter
    target._value_counter = source._value_counter

    def map_value(value):
        if value is None or isinstance(value, Constant):
            return value
        mapped = value_map.get(value)
        if mapped is None:
            raise IRError(
                f"clone: unmapped operand {value!r} in @{source.name}"
            )
        return mapped

    # Allocas first: they are operand-free, and transforms (inlining,
    # porters) may leave a use in an earlier-ordered block than its
    # alloca, which the single in-order pass below cannot remap.
    for block in source.blocks:
        for instr in block.instructions:
            if isinstance(instr, ins.Alloca) and instr not in value_map:
                value_map[instr] = ins.Alloca(instr.allocated_type)

    for block in source.blocks:
        clone_block = block_map[block]
        for instr in block.instructions:
            cloned = value_map.get(instr)
            if cloned is None:
                cloned = _clone_instruction(
                    instr, map_value, block_map, new_module
                )
            cloned.source_line = instr.source_line
            cloned.marks = set(instr.marks)
            cloned.name = instr.name
            clone_block.append(cloned)
            value_map[instr] = cloned


def _clone_instruction(instr, map_value, block_map, new_module):
    if isinstance(instr, ins.Alloca):
        return ins.Alloca(instr.allocated_type)
    if isinstance(instr, ins.Load):
        return ins.Load(
            map_value(instr.pointer), instr.order, instr.volatile
        )
    if isinstance(instr, ins.Store):
        return ins.Store(
            map_value(instr.pointer),
            map_value(instr.value),
            instr.order,
            instr.volatile,
        )
    if isinstance(instr, ins.Gep):
        path = [
            (step[0], step[1], map_value(step[2]))
            if step[0] == "index"
            else step
            for step in instr.path
        ]
        return ins.Gep(map_value(instr.base), path, instr.result_pointee)
    if isinstance(instr, ins.Malloc):
        return ins.Malloc(map_value(instr.size))
    if isinstance(instr, ins.Free):
        return ins.Free(map_value(instr.pointer))
    if isinstance(instr, ins.Cmpxchg):
        return ins.Cmpxchg(
            map_value(instr.pointer),
            map_value(instr.expected),
            map_value(instr.desired),
            instr.order,
        )
    if isinstance(instr, ins.AtomicRMW):
        return ins.AtomicRMW(
            instr.op, map_value(instr.pointer), map_value(instr.value), instr.order
        )
    if isinstance(instr, ins.Fence):
        return ins.Fence(instr.order)
    if isinstance(instr, ins.BinOp):
        return ins.BinOp(instr.op, map_value(instr.left), map_value(instr.right))
    if isinstance(instr, ins.Cast):
        return ins.Cast(map_value(instr.value), instr.ctype)
    if isinstance(instr, ins.Br):
        return ins.Br(block_map[instr.target])
    if isinstance(instr, ins.CondBr):
        return ins.CondBr(
            map_value(instr.cond),
            block_map[instr.true_block],
            block_map[instr.false_block],
        )
    if isinstance(instr, ins.Ret):
        return ins.Ret(map_value(instr.value) if instr.has_value else None)
    if isinstance(instr, ins.Call):
        callee = new_module.functions[instr.callee.name]
        return ins.Call(callee, [map_value(arg) for arg in instr.args])
    if isinstance(instr, ins.ThreadCreate):
        callee = new_module.functions[instr.callee.name]
        return ins.ThreadCreate(
            callee, map_value(instr.arg) if instr.arg is not None else None
        )
    if isinstance(instr, ins.ThreadJoin):
        return ins.ThreadJoin(map_value(instr.tid))
    if isinstance(instr, ins.AssertInst):
        return ins.AssertInst(map_value(instr.cond), instr.message)
    if isinstance(instr, ins.PrintInst):
        return ins.PrintInst(map_value(instr.value))
    if isinstance(instr, ins.Sleep):
        return ins.Sleep(map_value(instr.duration))
    if isinstance(instr, ins.CompilerBarrier):
        return ins.CompilerBarrier()
    raise IRError(f"clone: unhandled instruction {type(instr).__name__}")
