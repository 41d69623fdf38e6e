"""Control-flow-graph analysis: basic blocks and reconvergence points.

SIMT divergence is handled with a reconvergence stack (see
:mod:`repro.sim.warp`).  The reconvergence PC of every conditional branch is
its *immediate post-dominator* — the first instruction that every divergent
path is guaranteed to reach.  We compute immediate post-dominators as
immediate dominators of the reversed CFG, with the classic
Cooper-Harvey-Kennedy iteration (:func:`immediate_post_dominators`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.opcodes import Op

#: Sentinel reconvergence PC meaning "paths only rejoin at kernel exit".
EXIT_PC = -1


@dataclass
class BasicBlock:
    """A maximal straight-line instruction run ``[start, end)``."""

    index: int
    start: int
    end: int  # exclusive
    successors: list[int] = field(default_factory=list)

    def __repr__(self) -> str:
        return f"BB{self.index}[{self.start}:{self.end}] -> {self.successors}"


def build_cfg(instrs) -> list[BasicBlock]:
    """Partition ``instrs`` into basic blocks with successor edges.

    Leaders are: PC 0, every branch target, and every instruction following
    a branch or EXIT.  Unreachable blocks are kept (they simply have no
    predecessors) so PCs map cleanly onto blocks.
    """
    n = len(instrs)
    leaders = {0}
    for pc, instr in enumerate(instrs):
        if instr.op is Op.BRA:
            leaders.add(instr.target)
            if pc + 1 < n:
                leaders.add(pc + 1)
        elif instr.op is Op.EXIT and pc + 1 < n:
            leaders.add(pc + 1)
    starts = sorted(leaders)
    blocks: list[BasicBlock] = []
    for i, start in enumerate(starts):
        end = starts[i + 1] if i + 1 < len(starts) else n
        blocks.append(BasicBlock(index=i, start=start, end=end))
    start_to_block = {b.start: b.index for b in blocks}

    for block in blocks:
        last = instrs[block.end - 1]
        if last.op is Op.EXIT:
            continue
        if last.op is Op.BRA:
            block.successors.append(start_to_block[last.target])
            if last.pred is not None and block.end < n:
                block.successors.append(start_to_block[block.end])
        elif block.end < n:
            block.successors.append(start_to_block[block.end])
    return blocks


def immediate_post_dominators(blocks: list[BasicBlock]) -> dict[int, int]:
    """Block index -> its immediate post-dominator's block index, or
    ``EXIT_PC`` when only the kernel exit post-dominates it.

    Immediate dominators of the reversed CFG rooted at a virtual exit node
    (every block without successors flows into it), by the
    Cooper-Harvey-Kennedy fixpoint over reverse-postorder.  Blocks that
    cannot reach the exit (infinite loops) have no post-dominator and are
    absent from the map.
    """
    exit_node = len(blocks)
    out_edges = [block.successors or [exit_node] for block in blocks]
    # Reverse-graph successors: the exit reaches the blocks that flow into
    # it, and every block reaches its forward predecessors.
    rev_succs: list[list[int]] = [[] for _ in range(exit_node + 1)]
    for block in blocks:
        for succ in out_edges[block.index]:
            rev_succs[succ].append(block.index)
    # Iterative DFS postorder of the reverse graph from the exit.
    postorder: list[int] = []
    seen = {exit_node}
    stack = [(exit_node, iter(rev_succs[exit_node]))]
    while stack:
        node, children = stack[-1]
        for child in children:
            if child not in seen:
                seen.add(child)
                stack.append((child, iter(rev_succs[child])))
                break
        else:
            stack.pop()
            postorder.append(node)
    number = {node: i for i, node in enumerate(postorder)}

    idom = {exit_node: exit_node}

    def intersect(a: int, b: int) -> int:
        while a != b:
            while number[a] < number[b]:
                a = idom[a]
            while number[b] < number[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for node in reversed(postorder[:-1]):  # reverse postorder, exit first
            new = None
            for pred in out_edges[node]:  # reverse-graph predecessors
                if pred in idom:
                    new = pred if new is None else intersect(pred, new)
            if idom.get(node) != new:
                idom[node] = new
                changed = True
    return {node: (EXIT_PC if dom == exit_node else dom)
            for node, dom in idom.items() if node != exit_node}


def reconvergence_table(instrs) -> dict[int, int]:
    """Map each conditional-branch PC to its reconvergence PC.

    Returns ``EXIT_PC`` for branches whose divergent paths only rejoin at
    kernel exit.
    """
    blocks = build_cfg(instrs)
    ipdom = immediate_post_dominators(blocks)
    block_of_pc = {}
    for block in blocks:
        for pc in range(block.start, block.end):
            block_of_pc[pc] = block

    table: dict[int, int] = {}
    for pc, instr in enumerate(instrs):
        if instr.op is not Op.BRA or instr.pred is None:
            continue
        # The branch ends its block, so its immediate post-dominator is
        # the block's.
        node = ipdom.get(block_of_pc[pc].index, EXIT_PC)
        table[pc] = EXIT_PC if node == EXIT_PC else blocks[node].start
    return table


def annotate_reconvergence(kernel) -> None:
    """Fill ``Instruction.reconv_pc`` for every conditional branch."""
    table = reconvergence_table(kernel.instrs)
    for pc, rpc in table.items():
        kernel.instrs[pc].reconv_pc = rpc
