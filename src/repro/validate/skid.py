"""Skid plane: PAPI_profil attribution accuracy per substrate skid model.

Section 4 of the paper: on out-of-order processors the interrupt pc "may
yield an address that is several instructions or even basic blocks
removed from the true address", while ProfileMe (Tru64 DCPI) and Itanium
EARs identify exact addresses.  Each cell profiles the
:func:`~repro.workloads.validation.skid_probe` workload -- all floating
point work isolated in one tiny ``fp_block`` function -- through the
real ``PAPI_profil`` machinery and scores the fraction of histogram mass
attributed to that block
(:func:`repro.core.profile.attribution_score`).

Pass criteria follow each platform's published skid model:

- precise mechanisms -- simALPHA's ProfileMe path and any direct
  platform with ``skid_max == 0`` (simT3E) -- must score exactly 1.0;
- skidding platforms must show the hazard: a strictly imperfect score
  (if simX86 ever profiled perfectly, its skid model is broken);
- the simIA64 EAR rung captures exact miss addresses and must score 1.0.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.calibrate import SAMPLING_PERIOD, scoped_eventset
from repro.core.library import Papi
from repro.core.profile import (
    Profil,
    ProfileBuffer,
    attribution_score,
    profile_from_ears,
)
from repro.hw.isa import INS_BYTES, Op
from repro.platforms import create
from repro.validate.matrix import MatrixCell
from repro.workloads import skid_probe, strided_scan

#: the profiled metric; the probe's FP work concentrates in one block.
SKID_SYMBOL = "PAPI_FP_INS"

#: overflow threshold for the interrupt-pc runs.
THRESHOLD = 50


def _profil_score(platform: str, n: int, seed: int) -> tuple:
    """(attribution score, samples, skid_max) for one profil run."""
    substrate = create(platform, seed=seed)
    papi = Papi(substrate)
    papi.sampling_period = SAMPLING_PERIOD
    work = skid_probe(n, use_fma=substrate.HAS_FMA)
    code = papi.event_name_to_code(SKID_SYMBOL)
    with scoped_eventset(papi) as es:
        es.add_event(code)
        buf = ProfileBuffer.covering(
            0, (len(work.program) + 64) * INS_BYTES
        )
        profil = Profil(es, buf, code, THRESHOLD)
        substrate.machine.load(work.program)
        sampling = substrate.supports_sampling_counts()
        if not sampling:
            # overflow watch must exist before start arms the counters
            profil.install()
        es.start()
        if sampling:
            # the sampling path post-processes the session's samples,
            # which only exists once the EventSet is running
            profil.install()
        substrate.machine.run_to_completion()
        profil.collect()
        es.stop()
        profil.uninstall()
    block = work.program.functions["fp_block"]
    truth = [pc * INS_BYTES for pc in range(block.start, block.end)]
    skid = substrate.machine.cpus[0].pmu.config.skid_max
    return attribution_score(buf, truth), buf.hits, skid


def _ear_cell(seed: int, n: int) -> MatrixCell:
    """simIA64 event-address-register rung: exact miss pcs."""
    substrate = create("simIA64", seed=seed)
    line_words = substrate.machine.hierarchy.config.l1d.line_bytes // 8
    work = strided_scan(n, line_words)
    ear = substrate.add_ear(4, "l1d_miss")
    substrate.machine.load(work.program)
    substrate.machine.run_to_completion()
    buf = ProfileBuffer.covering(0, (len(work.program) + 64) * INS_BYTES)
    profile_from_ears(buf, ear.records)
    load_pcs = [pc for pc, ins in enumerate(work.program.instructions)
                if ins.op in (Op.LOAD, Op.FLOAD)]
    score = attribution_score(buf, [pc * INS_BYTES for pc in load_pcs])
    return MatrixCell(
        plane="skid", platform="simIA64", name="EAR:l1d_miss",
        status="pass" if (score == 1.0 and buf.hits) else "fail",
        expected=1.0, actual=score,
        detail=f"event address registers, {buf.hits} captures",
    )


def run_skid_plane(
    platforms: Sequence[str],
    thorough: bool = False,
    seed: int = 12345,
) -> List[MatrixCell]:
    n = 12000 if thorough else 4000
    cells: List[MatrixCell] = []
    for platform in platforms:
        score, hits, skid = _profil_score(platform, n, seed)
        precise = platform == "simALPHA" or skid == 0
        if not hits:
            cells.append(MatrixCell(
                plane="skid", platform=platform, name=SKID_SYMBOL,
                status="fail", actual=0.0,
                detail="profil produced no samples",
            ))
            continue
        if precise:
            mechanism = ("ProfileMe sample" if platform == "simALPHA"
                         else "interrupt pc, zero skid")
            cells.append(MatrixCell(
                plane="skid", platform=platform, name=SKID_SYMBOL,
                status="pass" if score == 1.0 else "fail",
                expected=1.0, actual=score,
                detail=f"{mechanism}, {hits} samples",
            ))
        else:
            # the skid model must visibly smear: perfect attribution
            # through a skidding PMU means the model stopped working.
            cells.append(MatrixCell(
                plane="skid", platform=platform, name=SKID_SYMBOL,
                status="pass" if 0.0 < score < 1.0 else "fail",
                actual=score,
                detail=f"interrupt pc, skid_max={skid}, {hits} samples",
            ))
    if "simIA64" in platforms:
        cells.append(_ear_cell(seed, 8192))
    return cells
