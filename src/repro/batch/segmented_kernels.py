"""Segmented numpy kernels: one vectorized pass advances all segments.

These kernels replicate the looped per-job execution *bit for bit* — the
same final keys/IDs, the same per-job ``MemoryStats``, the same per-job
corruption RNG consumption — while hoisting the heavy numpy compute out of
the per-job loop.  Two regimes (DESIGN.md section 13):

* **Precise segments** collapse entirely: a stable sort is a pure
  permutation and the sorter's per-array traffic is its published
  :meth:`~repro.sorting.base.BaseSorter.precise_schedule`, a closed form in
  ``n`` alone.  One packed row-wise sort produces every segment's final
  keys and IDs, and each segment is charged the schedule — the same
  collapse :meth:`~repro.sorting.base.BaseSorter.sort` makes for one
  array, hoisted over the whole batch.

* **Approximate segments** cannot collapse: every pass's writes corrupt
  the values the next pass reads, and each job must consume *its own*
  corruption streams exactly as the looped run would.  So the radix passes
  and merge levels execute pass by pass — digit extraction, stable
  argsort, and permutation as single 2-D/ragged operations over all
  segments, with thin per-segment ``write_block`` calls that draw each
  job's corruption from its own RNG.

Ragged batches are handled by padding rows to the longest active segment
with ``0xFFFFFFFF`` sentinels.  Pads start in the trailing columns and
every radix pass keeps them there: a pad's digit is the maximum digit in
every pass, and the stable argsort preserves the order of equal-digit
elements, so real elements (which occupy earlier columns) always sort
before the pads of the same digit.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.sorting.base import BaseSorter
from repro.sorting.mergesort import _merge_pair, _merge_walk
from repro.sorting.radix import _digits_np, lsd_digit_plan

from .segments import charge_reads, raw

#: Padding sentinel for ragged 2-D layouts (sorts after every real element).
PAD_WORD = np.uint32(0xFFFFFFFF)

_U64_PAD = np.uint64(0xFFFFFFFFFFFFFFFF)


def sort_segments_precise(
    key_arrays: Sequence, id_arrays: Sequence, sorter: BaseSorter
) -> None:
    """Sort every precise segment as the stable, scheduled ``sorter`` would.

    The final keys/IDs equal the stable sort-by-key of the segment; one
    row-wise sort of ``key << 32 | pos`` packed words (all distinct, so any
    sort is stable-equivalent) yields every segment's result at once.  Each
    segment's keys and IDs are charged ``sorter.precise_schedule(n)``.
    """
    active = [j for j in range(len(key_arrays)) if len(key_arrays[j]) >= 2]
    if not active:
        return
    lens = [len(key_arrays[j]) for j in active]
    widest = max(lens)
    packed = np.full((len(active), widest), _U64_PAD, dtype=np.uint64)
    ramp = np.arange(widest, dtype=np.uint64)
    for a, j in enumerate(active):
        n = lens[a]
        packed[a, :n] = (raw(key_arrays[j]).astype(np.uint64) << np.uint64(32)) | ramp[:n]
    packed.sort(axis=1)
    sorted_keys = (packed >> np.uint64(32)).astype(np.uint32)
    perms = (packed & np.uint64(0xFFFFFFFF)).astype(np.int64)
    for a, j in enumerate(active):
        n = lens[a]
        key_buf = raw(key_arrays[j])
        id_buf = raw(id_arrays[j])
        id_buf[:n] = id_buf[perms[a, :n]]  # fancy index copies before store
        key_buf[:n] = sorted_keys[a, :n]
        reads, writes = sorter.precise_schedule(n)
        for array in (key_arrays[j], id_arrays[j]):
            array.stats.record_precise_read(reads)
            array.stats.record_precise_write(writes)


def lsd_sort_segments_approx(
    key_arrays: Sequence, id_arrays: Sequence, bits: int
) -> None:
    """Segmented LSD radix passes over approximate key segments.

    Per pass, one 2-D stable argsort of the padded digit matrix permutes
    every segment at once (the queue-concatenation order of the scalar
    path); each active segment then replays the looped pass's four
    accesses — bucket write, bucket read-back, home write for keys and the
    same for IDs — so corruption draws, their per-segment order (bucket
    first, home second) and the stats all match the looped run exactly.
    Keys corrupted by a pass feed the next pass's digit extraction, as on
    real hardware.
    """
    plan = lsd_digit_plan(bits)
    active = [j for j in range(len(key_arrays)) if len(key_arrays[j]) >= 2]
    if not active:
        return
    lens = [len(key_arrays[j]) for j in active]
    widest = max(lens)
    values = np.full((len(active), widest), PAD_WORD, dtype=np.uint32)
    id_values = np.zeros((len(active), widest), dtype=np.uint32)
    bucket_keys = []
    bucket_ids = []
    for a, j in enumerate(active):
        n = lens[a]
        values[a, :n] = raw(key_arrays[j])
        id_values[a, :n] = raw(id_arrays[j])
        # Clone order (keys' buckets first) matches the looped _sort, so
        # each segment's clone-seed derivation consumes its parent RNG
        # identically.
        bucket_keys.append(
            key_arrays[j].clone_empty(name=f"{key_arrays[j].name}.buckets")
        )
        bucket_ids.append(
            id_arrays[j].clone_empty(name=f"{id_arrays[j].name}.buckets")
        )
    for shift, mask in plan:
        order = np.argsort(_digits_np(values, shift, mask), axis=1, kind="stable")
        values = np.take_along_axis(values, order, axis=1)
        id_values = np.take_along_axis(id_values, order, axis=1)
        for a, j in enumerate(active):
            n = lens[a]
            keys = key_arrays[j]
            ids = id_arrays[j]
            charge_reads(keys, n)
            charge_reads(ids, n)
            bucket_keys[a].write_block(0, values[a, :n])
            bucket_ids[a].write_block(0, id_values[a, :n])
            charge_reads(bucket_keys[a], n)
            keys.write_block(0, bucket_keys[a].peek_block_np(0, n))
            charge_reads(bucket_ids[a], n)
            ids.write_block(0, id_values[a, :n])
            values[a, :n] = raw(keys)  # post-corruption keys feed next pass


def merge_sort_segments_approx(key_arrays: Sequence, id_arrays: Sequence) -> None:
    """Segmented bottom-up merge levels over approximate key segments.

    All segments share the level clock (a segment participates in levels
    ``0 .. ceil(log2 n)-1``, a consecutive prefix, so the ping-pong parity
    is common); each level merges every live segment's run pairs in one
    ragged vectorized step (:func:`_merge_level_ragged`), then one
    ``write_block`` per segment draws that job's level corruption exactly
    as the looped numpy level does.  Segments whose level count is odd get
    the looped copy-home pass at the end.
    """
    active = [j for j in range(len(key_arrays)) if len(key_arrays[j]) >= 2]
    if not active:
        return
    widest = max(len(key_arrays[j]) for j in active)
    dst_keys = {}
    dst_ids = {}
    for j in active:
        dst_keys[j] = key_arrays[j].clone_empty(
            name=f"{key_arrays[j].name}.merge-buffer"
        )
        dst_ids[j] = id_arrays[j].clone_empty(
            name=f"{id_arrays[j].name}.merge-buffer"
        )
    width = 1
    level = 0
    while width < widest:
        live = [j for j in active if len(key_arrays[j]) > width]
        vals_parts = []
        id_parts = []
        for j in live:
            n = len(key_arrays[j])
            src_k = key_arrays[j] if level % 2 == 0 else dst_keys[j]
            src_i = id_arrays[j] if level % 2 == 0 else dst_ids[j]
            charge_reads(src_k, n)
            charge_reads(src_i, n)
            vals_parts.append(raw(src_k)[:n])
            id_parts.append(raw(src_i)[:n])
        merged_parts = _merge_level_ragged(vals_parts, id_parts, width)
        for k, j in enumerate(live):
            dst_k = dst_keys[j] if level % 2 == 0 else key_arrays[j]
            dst_i = dst_ids[j] if level % 2 == 0 else id_arrays[j]
            out_vals, out_ids = merged_parts[k]
            dst_k.write_block(0, out_vals)
            dst_i.write_block(0, out_ids)
        width *= 2
        level += 1
    for j in active:
        n = len(key_arrays[j])
        if math.ceil(math.log2(n)) % 2 == 1:
            # Result sits in the scratch buffer; accounted copy home.
            charge_reads(dst_keys[j], n)
            key_arrays[j].write_block(0, dst_keys[j].peek_block_np(0, n))
            charge_reads(dst_ids[j], n)
            id_arrays[j].write_block(0, dst_ids[j].peek_block_np(0, n))


def _merge_level_ragged(
    vals_parts: list[np.ndarray], id_parts: list[np.ndarray], width: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """One merge level of run width ``width`` for every part at once.

    All parts' *full* run pairs stack into one ``(rows, 2*width)`` matrix
    and merge through the keyed double-``searchsorted`` of the PR-2 level
    kernel (:func:`repro.sorting.mergesort._merge_level`); corrupted
    (unsorted) rows replay the scalar two-pointer walk, and each part's
    trailing partial pair merges via ``_merge_pair`` — so every part's
    output is bit-identical to the looped level on the same values.
    """
    span = 2 * width
    full_rows = [part.size // span for part in vals_parts]
    stacked = [
        vals_parts[k][: full_rows[k] * span].reshape(full_rows[k], span)
        for k in range(len(vals_parts))
        if full_rows[k]
    ]
    outputs = [
        (np.empty(part.size, dtype=np.uint32), np.empty(part.size, dtype=np.uint32))
        for part in vals_parts
    ]
    if stacked:
        blocks = np.vstack(stacked).astype(np.int64)
        id_blocks = np.vstack(
            [
                id_parts[k][: full_rows[k] * span].reshape(full_rows[k], span)
                for k in range(len(id_parts))
                if full_rows[k]
            ]
        )
        merged, merged_ids = _merge_rows(blocks, id_blocks, width)
        row = 0
        for k, rows in enumerate(full_rows):
            if rows:
                outputs[k][0][: rows * span] = merged[row : row + rows].ravel()
                outputs[k][1][: rows * span] = merged_ids[row : row + rows].ravel()
                row += rows
    for k, part in enumerate(vals_parts):
        tail = full_rows[k] * span
        n = part.size
        if tail < n:
            mid = min(tail + width, n)
            merged_tail, merged_tail_ids = _merge_pair(
                part[tail:mid], part[mid:n],
                id_parts[k][tail:mid], id_parts[k][mid:n],
            )
            outputs[k][0][tail:n] = merged_tail
            outputs[k][1][tail:n] = merged_tail_ids
    return outputs


def _merge_rows(
    blocks: np.ndarray, id_blocks: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Merge each ``(row, 2*width)`` pair of runs; rows are independent."""
    total_rows, span = blocks.shape
    left = blocks[:, :width]
    right = blocks[:, width:]
    dirty = (np.diff(left, axis=1) < 0).any(axis=1)
    dirty |= (np.diff(right, axis=1) < 0).any(axis=1)
    out = np.empty((total_rows, span), dtype=np.uint32)
    out_ids = np.empty((total_rows, span), dtype=np.uint32)
    clean = np.flatnonzero(~dirty)
    if clean.size:
        m = clean.size
        row_key = (np.arange(m, dtype=np.int64) << np.int64(32))[:, None]
        left_keyed = (left[clean] + row_key).ravel()
        right_keyed = (right[clean] + row_key).ravel()
        col = np.tile(np.arange(width, dtype=np.int64), m)
        cross = np.repeat(np.arange(m, dtype=np.int64) * width, width)
        pos_left = col + np.searchsorted(right_keyed, left_keyed, side="left") - cross
        pos_right = col + np.searchsorted(left_keyed, right_keyed, side="right") - cross
        row_rep = np.repeat(clean, width)
        out[row_rep, pos_left] = (left_keyed & 0xFFFFFFFF).astype(np.uint32)
        out[row_rep, pos_right] = (right_keyed & 0xFFFFFFFF).astype(np.uint32)
        out_ids[row_rep, pos_left] = id_blocks[clean, :width].ravel()
        out_ids[row_rep, pos_right] = id_blocks[clean, width:].ravel()
    for row in np.flatnonzero(dirty).tolist():
        merged, merged_ids = _merge_walk(
            blocks[row, :width].tolist(), blocks[row, width:].tolist(),
            id_blocks[row, :width].tolist(), id_blocks[row, width:].tolist(),
        )
        out[row] = merged
        out_ids[row] = merged_ids
    return out, out_ids


def find_rem_segments(id_arrays: Sequence, key0_arrays: Sequence) -> list[list[int]]:
    """Segmented Listing-1 scan: every segment's REMID~ from one pass.

    The per-segment scans concatenate into one keyed sequence
    ``(segment << 32) | key``: the running-max acceptance of the
    vectorized Listing-1 kernel (:func:`repro.core.refine._find_rem_ids_np`)
    then resets itself at segment boundaries for free, because a new
    segment's keyed values exceed every earlier segment's running max.
    Outputs and accounted multiplicities per segment are bit-identical to
    the looped scan in either kernel mode (the two modes already agree).
    """
    count = len(id_arrays)
    rem_lists: list[list[int]] = [[] for _ in range(count)]
    for j in range(count):
        if len(id_arrays[j]) == 1:
            # The scalar scan on n == 1 reads ids[0] and its key, finds no
            # REM element.
            charge_reads(id_arrays[j], 1)
            charge_reads(key0_arrays[j], 1)
    multi = [j for j in range(count) if len(id_arrays[j]) >= 2]
    if not multi:
        return rem_lists
    lens = np.asarray([len(id_arrays[j]) for j in multi], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(lens)))
    total = int(offsets[-1])
    id_vals = np.concatenate([raw(id_arrays[j]) for j in multi])
    keys = np.concatenate(
        [raw(key0_arrays[j])[raw(id_arrays[j])] for j in multi]
    ).astype(np.int64)
    seg = np.repeat(np.arange(len(multi), dtype=np.int64), lens)
    local = np.arange(total, dtype=np.int64) - offsets[seg]
    keyed = (seg << np.int64(32)) | keys
    next_key = np.empty(total, dtype=np.int64)
    next_key[:-1] = keys[1:]
    next_key[-1] = 0
    interior = (local >= 1) & (local <= lens[seg] - 2)
    admissible = interior & (keys <= next_key)
    seeded = np.flatnonzero((local == 0) | admissible)
    seeded_keyed = keyed[seeded]
    running_max = np.maximum.accumulate(seeded_keyed)
    accepted = np.ones(seeded.size, dtype=bool)
    # A segment's first element initializes its LIS~ tail (and trivially
    # passes the cross-segment comparison); admissible interiors must meet
    # the running max, exactly the looped acceptance test.
    accepted[1:] = seeded_keyed[1:] >= running_max[:-1]
    rem_mask = interior & ~admissible
    rem_mask[seeded[~accepted]] = True
    last_pos = offsets[1:] - 1
    last_seed = np.searchsorted(seg[seeded], np.arange(len(multi)), side="right") - 1
    rem_last = keyed[last_pos] < running_max[last_seed]
    rem_mask[last_pos[rem_last]] = True
    rem_pos = np.flatnonzero(rem_mask)
    counts = np.bincount(seg[rem_pos], minlength=len(multi))
    per_seg = np.split(id_vals[rem_pos], np.cumsum(counts)[:-1])
    for k, j in enumerate(multi):
        n = int(lens[k])
        rem_count = int(counts[k])
        # The looped scan's multiplicities: ids read n + (n-2) times plus
        # once per REM element; keys read n + (n-2) times; one Rem~ write
        # per REM element.
        charge_reads(id_arrays[j], n + (n - 2) + rem_count)
        charge_reads(key0_arrays[j], n + (n - 2))
        id_arrays[j].stats.record_precise_write(rem_count)
        rem_lists[j] = [int(v) for v in per_seg[k]]
    return rem_lists


def sort_rem_segments(
    rem_lists: Sequence[list[int]],
    key0_arrays: Sequence,
    sorter: BaseSorter,
) -> list[list[int]]:
    """Segmented REM sort for a stable sorter with a precise schedule.

    The REM sort runs on a *precise* shadow whatever the approx-stage
    memory was, so the precise collapse applies: one stable composite
    argsort of ``(segment << 32) | key`` orders every segment's REM IDs
    (ties keep scan order, matching the stable looped sort).  The charge
    follows :func:`repro.core.refine.sort_rem_ids`: the ID array's
    schedule plus the shadow keys' reads, transferred, but not the
    shadow's writes.  The one-read-per-REM-key gather is charged here too.
    """
    out = [list(rem) for rem in rem_lists]
    work = [j for j in range(len(rem_lists)) if len(rem_lists[j]) >= 2]
    if not work:
        return out
    lens = []
    key_parts = []
    id_parts = []
    for j in work:
        rem = np.asarray(rem_lists[j], dtype=np.int64)
        key_parts.append(raw(key0_arrays[j])[rem].astype(np.int64))
        charge_reads(key0_arrays[j], rem.size)  # one Key0 read per REM key
        id_parts.append(rem)
        lens.append(rem.size)
    seg = np.repeat(np.arange(len(work), dtype=np.int64), np.asarray(lens))
    keyed = (seg << np.int64(32)) | np.concatenate(key_parts)
    order = np.argsort(keyed, kind="stable")
    sorted_ids = np.concatenate(id_parts)[order]
    offsets = np.concatenate(([0], np.cumsum(lens)))
    for k, j in enumerate(work):
        m = lens[k]
        out[j] = [int(v) for v in sorted_ids[offsets[k] : offsets[k + 1]]]
        reads, writes = sorter.precise_schedule(m)
        stats = key0_arrays[j].stats
        stats.record_precise_read(2 * reads)
        stats.record_precise_write(writes)
    return out
