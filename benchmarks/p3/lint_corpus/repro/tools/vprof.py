"""A VProf-style source annotator: profiles correlated with code.

Section 2: PAPI_profil "can be used by end-user tools such as VProf to
collect profiling data which can then be correlated with application
source code."  For VM programs the "source" is the disassembly: this
tool merges a :class:`~repro.core.profile.ProfileBuffer` histogram with
the program listing, producing the classic annotated view --

    hits    %   pc  instruction
    1170  58%    7  FMA 0, 1, 2, 0      <-- hottest
     390  19%    8  ADDI 1, 1, 1

-- plus per-function rollups and a hot-line report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.report import Table
from repro.core.errors import InvalidArgumentError
from repro.core.profile import ProfileBuffer
from repro.hw.isa import INS_BYTES, OP_NAMES, Program


@dataclass(frozen=True)
class AnnotatedLine:
    """One program line with its profile weight."""

    pc: int
    function: Optional[str]
    text: str
    hits: int
    share: float                 #: fraction of all hits


@dataclass(frozen=True)
class FunctionSummary:
    name: str
    start: int
    end: int
    hits: int
    share: float


class SourceAnnotation:
    """The merged (program x profile) view."""

    def __init__(self, program: Program, buffer: ProfileBuffer) -> None:
        if buffer.hits == 0:
            raise InvalidArgumentError(
                "profile buffer is empty; run the profiled program first"
            )
        self.program = program
        self.buffer = buffer
        self.lines = self._annotate()

    def _annotate(self) -> List[AnnotatedLine]:
        total = self.buffer.hits
        lines: List[AnnotatedLine] = []
        for pc, ins in enumerate(self.program.instructions):
            idx = self.buffer.bucket_index(pc * INS_BYTES)
            hits = self.buffer.buckets[idx] if idx is not None else 0
            fn = self.program.function_at(pc)
            operands = ", ".join(
                str(getattr(ins, f))
                for f in ("a", "b", "c", "d")
                if getattr(ins, f) != 0 or f == "a"
            )
            lines.append(
                AnnotatedLine(
                    pc=pc,
                    function=fn.name if fn else None,
                    text=f"{OP_NAMES[ins.op]} {operands}".rstrip(),
                    hits=hits,
                    share=hits / total,
                )
            )
        return lines

    # ------------------------------------------------------------------

    def hottest_lines(self, k: int = 5) -> List[AnnotatedLine]:
        return sorted(self.lines, key=lambda l: l.hits, reverse=True)[:k]

    def function_summaries(self) -> List[FunctionSummary]:
        total = self.buffer.hits
        out = []
        for fn in sorted(
            self.program.functions.values(), key=lambda f: f.start
        ):
            hits = sum(
                l.hits for l in self.lines if fn.start <= l.pc < fn.end
            )
            out.append(
                FunctionSummary(fn.name, fn.start, fn.end, hits, hits / total)
            )
        return out

    def hottest_function(self) -> str:
        return max(self.function_summaries(), key=lambda s: s.hits).name

    def coverage(self) -> float:
        """Fraction of profile hits landing inside the program's text."""
        inside = sum(l.hits for l in self.lines)
        return inside / self.buffer.hits

    # ------------------------------------------------------------------

    def to_text(self, min_share: float = 0.0, metric: str = "samples") -> str:
        table = Table(
            ["hits", "%", "pc", "function", "instruction"],
            title=f"vprof: {self.program.name} ({self.buffer.hits} {metric})",
        )
        for line in self.lines:
            if line.share < min_share and line.hits == 0:
                continue
            table.add_row(
                line.hits,
                round(line.share * 100, 1),
                line.pc,
                line.function or "-",
                line.text,
            )
        return table.render()

    def summary_text(self) -> str:
        table = Table(
            ["function", "pcs", "hits", "%"],
            title=f"vprof summary: {self.program.name}",
        )
        for s in self.function_summaries():
            table.add_row(
                s.name, f"{s.start}..{s.end}", s.hits,
                round(s.share * 100, 1),
            )
        return table.render()


def annotate(program: Program, buffer: ProfileBuffer) -> SourceAnnotation:
    """Merge *buffer* with *program* (the VProf correlation step)."""
    return SourceAnnotation(program, buffer)
