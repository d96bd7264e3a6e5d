//! The one resolve loop every mode runs its chunks through (DESIGN.md §7).
//!
//! A direction's questions are all known before the first is asked, so each
//! mode cuts them into chunks — lockstep pairs ([`crate::prune::pair_chunks`])
//! or runs of whole queries ([`query_runs`]) — and [`resolve`] runs them in
//! order, a window of them in flight. A window of one is the serial order.

use crate::error::CoreError;
use crate::prune::PAIR_CHUNK;
use ppds_observe::trace;
use ppds_smc::SmcBackend;
use ppds_transport::Channel;
use std::collections::VecDeque;
use std::ops::Range;

/// The most a window may leave as the smaller unread backlog at any state
/// where both parties send (DESIGN.md §7, *Why 64 KiB*): enough to keep a
/// link busy, and below what default TCP buffering holds.
const WINDOW_BYTES: usize = 64 << 10;

/// Runs `chunks` in order, each in two halves: `post` sends what needs
/// nothing from the peer and keeps what the chunk settles with, `settle`
/// completes it. Chunk `i` settles once the chunks up to `i + window − 1`
/// are posted, inside the span `resolve#i`; `i` counts the chunks from 0
/// and keys their randomness. Every chunk must answer each of its `items`,
/// and only then do the answers go to `take`. The first error ends the loop:
/// nothing is posted or settled after it.
pub(crate) fn resolve<C: Channel, K, S, A>(
    chan: &mut C,
    window: usize,
    chunks: impl IntoIterator<Item = K>,
    mut post: impl FnMut(&mut C, u64, K) -> Result<S, CoreError>,
    mut settle: impl FnMut(&mut C, u64, &S) -> Result<Vec<A>, CoreError>,
    items: impl Fn(&S) -> usize,
    mut take: impl FnMut(S, Vec<A>),
) -> Result<(), CoreError> {
    let mut chunks = chunks.into_iter().fuse().peekable();
    let mut posted = VecDeque::with_capacity(window);
    for chunk in 0u64.. {
        if posted.is_empty() && chunks.peek().is_none() {
            break;
        }
        let span = trace::span_with(|| format!("resolve#{chunk}"), || chan.metrics());
        for admitted in chunks.by_ref().take(window.max(1) - posted.len()) {
            posted.push_back(post(chan, chunk + posted.len() as u64, admitted)?);
        }
        let Some(state) = posted.pop_front() else {
            break;
        };
        let answers = settle(chan, chunk, &state)?;
        let (owed, got) = (items(&state), answers.len());
        if owed != got {
            let arity = format!("resolve chunk {chunk} arity: {owed} items vs {got} answers");
            return Err(CoreError::mismatch(arity));
        }
        take(state, answers);
        span.end(|| chan.metrics());
    }
    Ok(())
}

/// The chunks of a point-holding direction, query `q` of `queries` served
/// `served(q)` points: runs of whole queries in index order, each with its
/// (query, served point) pairs, packed greedily while a run stays within
/// [`PAIR_CHUNK`] pairs — one served more travels alone. A run without
/// pairs is left out, so it takes no chunk index and no frame. Both sides
/// cut from counts they both hold, and say nothing of it.
pub(crate) fn query_runs(
    queries: usize,
    served: impl Fn(usize) -> usize,
) -> impl Iterator<Item = (Range<usize>, usize)> {
    let mut start = 0;
    std::iter::from_fn(move || {
        while start < queries {
            let (mut end, mut pairs) = (start + 1, served(start));
            while end < queries && pairs.saturating_add(served(end)) <= PAIR_CHUNK {
                pairs += served(end);
                end += 1;
            }
            let run = std::mem::replace(&mut start, end)..end;
            if pairs > 0 {
                return Some((run, pairs));
            }
        }
        None
    })
}

/// How many of `runs` a horizontal resolve keeps in flight: the largest
/// `W`, at most the run count, whose [`need`] for a chunk with the most
/// pairs and the most queries served anything stays within
/// [`WINDOW_BYTES`] — or 1 when the backend posts nothing ahead. Both sides
/// derive it from what they agree on before the first chunk, and must: a
/// querier that expected fewer chunks ahead would read a fold request where
/// it wants an open.
pub(crate) fn window<B: SmcBackend>(
    backend: &B,
    runs: &[(Range<usize>, usize)],
    served: impl Fn(usize) -> usize,
    dim: usize,
) -> usize {
    let largest = runs.iter().map(|&(_, pairs)| pairs).max().unwrap_or(0);
    let asked = |run: &Range<usize>| run.clone().filter(|&q| served(q) > 0).count();
    let asked = runs.iter().map(|(run, _)| asked(run)).max().unwrap_or(0);
    backend
        .split_exchange_bytes(largest, asked, dim)
        .map_or(1, |bytes| {
            // `need` grows with the window, so the first misfit ends it.
            (2..=runs.len())
                .take_while(|&window| need(window, bytes) <= WINDOW_BYTES)
                .last()
                .unwrap_or(1)
        })
}

/// The most the smaller of the two unread backlogs can be at any state of a
/// `window`-chunk resolve in which both parties are in `send`, when a chunk
/// is `responder` bytes one way and `querier` bytes back: with the
/// responder `m` chunks posted past what the querier has read, she is at
/// most `window − m` past what he has read (DESIGN.md §7, *Why 64 KiB*).
/// The tests below replay both sides of [`resolve`] and find this exact once
/// there are `2 · window` chunks, and an overestimate with fewer.
fn need(window: usize, (responder, querier): (usize, usize)) -> usize {
    (1..window)
        .map(|m| (m * responder).min((window - m) * querier))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppds_smc::{DealerTape, SharingBackend};
    use ppds_transport::{duplex, MemoryChannel};
    use std::cell::RefCell;

    /// The halves that sent a frame (`('p' | 's', chunk)`) and the chunks
    /// taken (`('t', chunk)`), in order.
    type Log = Vec<(char, u64)>;
    type Outcome = (Result<(), CoreError>, Log);

    /// Runs chunks of `sizes` items at `window`, each half sending a frame;
    /// `fault` refuses a half (`'p'`, `'s'`) or has a chunk answer short (`'a'`).
    fn drive(window: usize, sizes: &[usize], fault: Option<(char, u64)>) -> Outcome {
        let ((mut chan, _peer), log) = (duplex(), RefCell::new(Vec::new()));
        let half = |chan: &mut MemoryChannel, step| {
            if fault == Some(step) {
                return Err(CoreError::config("refused"));
            }
            log.borrow_mut().push(step);
            Ok(chan.send_bytes(&[0])?)
        };
        let outcome = resolve(
            &mut chan,
            window,
            sizes.iter().copied(),
            |chan, c, size| half(chan, ('p', c)).map(|()| (c, size)),
            |chan, c, &(_, size)| {
                let short = usize::from(fault == Some(('a', c)));
                half(chan, ('s', c)).map(|()| vec![(); size - short])
            },
            |&(_, size)| size,
            |(c, _), _| log.borrow_mut().push(('t', c)),
        );
        let log = log.into_inner();
        let halves = log.iter().filter(|step| step.0 != 't').count();
        assert_eq!(chan.metrics().rounds_sent, halves as u64, "a frame a half");
        (outcome, log)
    }

    #[test]
    fn chunk_indices_are_contiguous_and_at_most_a_window_is_in_flight() {
        for window in 1..=7u64 {
            let (outcome, log) = drive(window as usize, &[3, 1, 2, 5, 1], None);
            assert!(outcome.is_ok(), "{outcome:?}");
            // Chunks 0 to `window − 1` go out first; then each settles and
            // is taken, and the one `window` places behind it goes out.
            let mut expected: Log = (0..window.min(5)).map(|c| ('p', c)).collect();
            for c in 0..5 {
                expected.extend([('s', c), ('t', c)]);
                expected.extend((c + window < 5).then_some(('p', c + window)));
            }
            assert_eq!(log, expected, "window {window}");
        }
    }

    #[test]
    fn a_run_with_no_pairs_takes_no_chunk_index_and_no_frame() {
        let runs = |served: &[usize]| -> Vec<(Range<usize>, usize)> {
            query_runs(served.len(), |q| served[q]).collect()
        };
        assert!(runs(&[]).is_empty() && runs(&[0, 0, 0]).is_empty());
        assert_eq!(runs(&[0, 3, 0, 2]), [(0..4, 5)], "zeros ride along");
        // 1..3 is a run of its own between two oversize queries and asks
        // nothing, so 3..4 is chunk 1.
        assert_eq!(runs(&[2000, 0, 0, 2000]), [(0..1, 2000), (3..4, 2000)]);
        let (outcome, log) = drive(3, &[], Some(('p', 0)));
        assert!(outcome.is_ok() && log.is_empty());
        // Whole queries, packed while a run stays within the budget.
        let ends = |served: &[usize]| -> Vec<usize> {
            let runs = runs(served);
            for (run, pairs) in &runs {
                assert_eq!(served[run.clone()].iter().sum::<usize>(), *pairs);
            }
            runs.into_iter().map(|run| run.0.end).collect()
        };
        assert_eq!(ends(&[1024]), [1]);
        assert_eq!(ends(&[512, 512, 1]), [2, 3], "at the budget");
        assert_eq!(ends(&[512, 513]), [1, 2], "one over");
        let alone = ends(&[5000, 0, 1, 2000, 1024, 0]);
        assert_eq!(alone, [1, 3, 4, 6], "an oversize query travels alone");
        assert_eq!(ends(&[usize::MAX, usize::MAX]), [1, 2]);
        assert_eq!(ends(&[100; 25]), [10, 20, 25]);
    }

    #[test]
    fn an_error_or_a_short_answer_ends_the_loop_before_another_frame() {
        for window in [1, 3] {
            let (_, whole) = drive(window, &[2; 6], None);
            let before = |step| whole.iter().take_while(|&&s| s != step).count();
            for refused in [('p', 2), ('s', 1), ('s', 5)] {
                let (outcome, log) = drive(window, &[2; 6], Some(refused));
                assert!(matches!(outcome, Err(CoreError::Config(_))), "{outcome:?}");
                assert_eq!(log, whole[..before(refused)], "window {window}");
            }
            // A short chunk is refused by index once it settles, untaken.
            let (outcome, log) = drive(window, &[2; 6], Some(('a', 2)));
            let named = "resolve chunk 2 arity: 2 items vs 1 answers";
            let typed = matches!(&outcome, Err(CoreError::Mismatch(m)) if m == named);
            assert!(typed, "{outcome:?}");
            assert_eq!(log, whole[..=before(('s', 2))], "window {window}");
        }
    }

    /// One step of a side of a resolve direction, replayed without a wire.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Op {
        /// Ships a frame of this many bytes.
        Send(usize),
        /// Reads the peer's next frame.
        Recv,
    }

    /// One side of `chunks` chunks at `window` in the order [`resolve`]
    /// runs their halves, each half replaced by its frames.
    fn program(chunks: usize, window: usize, (post, settle): (&[Op], &[Op])) -> Vec<Op> {
        let (_, log) = drive(window, &vec![0; chunks], None);
        let frames = |&(half, _): &(char, u64)| match half {
            'p' => post,
            's' => settle,
            _ => &[],
        };
        log.iter().flat_map(frames).copied().collect()
    }

    /// Per step of a program: frames sent and frames read before it; and
    /// the bytes of its first `k` frames, by `k`.
    fn replay(ops: &[Op]) -> (Vec<(usize, usize)>, Vec<usize>) {
        let (mut before, mut stream, mut read) = (Vec::new(), vec![0], 0);
        for op in ops {
            before.push((stream.len() - 1, read));
            match *op {
                Op::Send(bytes) => stream.push(stream[stream.len() - 1] + bytes),
                Op::Recv => read += 1,
            }
        }
        (before, stream)
    }

    /// By brute force: every pair of send steps the two programs can be at
    /// together — each has read no frame the other has not sent — and at
    /// each the smaller of the two unread backlogs, the frame in `send`
    /// included. Returns the largest.
    fn worst_both_sending(a: &[Op], b: &[Op]) -> usize {
        let ((a_before, a_stream), (b_before, b_stream)) = (replay(a), replay(b));
        let sends = |ops: &[Op]| -> Vec<usize> {
            (0..ops.len())
                .filter(|&i| matches!(ops[i], Op::Send(_)))
                .collect()
        };
        let mut worst = 0;
        for i in sends(a) {
            for j in sends(b) {
                let ((a_sent, a_read), (b_sent, b_read)) = (a_before[i], b_before[j]);
                if a_read > b_sent || b_read > a_sent {
                    continue;
                }
                let a_unread = a_stream[a_sent + 1] - a_stream[b_read];
                let b_unread = b_stream[b_sent + 1] - b_stream[a_read];
                worst = worst.max(a_unread.min(b_unread));
            }
        }
        worst
    }

    /// [`need`] against the brute force over the loop's own order, for the
    /// sharing backend's frames at every dimension up to 8 and chunks of one
    /// query, ten and a thousand: never below it, and equal to it once there
    /// are chunks enough to fill the window both ways (checked up to 20
    /// chunks, so for every window a 100 + 100 session can take). At a
    /// window of one — the order the lockstep and enhanced chunks run in —
    /// each side runs its halves chunk after chunk, and the parties never
    /// send at once.
    #[test]
    fn the_window_bound_is_the_worst_state_where_both_parties_send() -> Result<(), &'static str> {
        use Op::{Recv, Send};
        const PAIRS: usize = 1000;
        let backend = SharingBackend {
            tape: DealerTape::from_seed(4242),
            batching: true,
            dot_mask_bound: 1 << 20,
        };
        // Each half of the open is one element a pair, in a frame.
        let open = ppds_transport::FRAME_OVERHEAD_BYTES as usize + 8 * PAIRS;
        for dim in 1..=8 {
            for queries in [1, 10, PAIRS] {
                let bytes = backend
                    .split_exchange_bytes(PAIRS, queries, dim)
                    .ok_or("no split")?;
                // A chunk's halves: the responder's fold request, then the
                // replies and his half of the open; the querier's reply and
                // her half, then his half.
                let responder: (&[Op], &[Op]) =
                    (&[Send(bytes.0 - open)], &[Recv, Recv, Send(open)]);
                let querier: (&[Op], &[Op]) = (&[Recv, Send(bytes.1 - open), Send(open)], &[Recv]);
                for window in 1..=10 {
                    for chunks in 1..=20 {
                        let (r, q) = (
                            program(chunks, window, responder),
                            program(chunks, window, querier),
                        );
                        let worst = worst_both_sending(&r, &q);
                        let bound = need(window, bytes);
                        let case = format!(
                            "dim {dim}, {queries} queries, window {window}, {chunks} chunks"
                        );
                        assert!(bound >= worst, "{case}: need {bound} < {worst}");
                        // Fewer chunks never fill the window both ways at once.
                        if window > 1 && chunks >= 2 * window {
                            assert_eq!(bound, worst, "{case}: the bound is exact");
                        }
                        if window == 1 {
                            assert_eq!(r, [responder.0, responder.1].concat().repeat(chunks));
                            assert_eq!(q, [querier.0, querier.1].concat().repeat(chunks));
                            assert_eq!(worst, 0, "{case}: never both sending");
                        }
                    }
                }
            }
        }
        // DESIGN.md §7's table: dimension 2, ten queries a chunk, `need` at
        // windows 2 to 8.
        let dim2 = backend
            .split_exchange_bytes(PAIRS, 10, 2)
            .ok_or("no split")?;
        assert_eq!(dim2, (24_008, 16_168));
        let needs: Vec<usize> = (2..=8).map(|window| need(window, dim2)).collect();
        assert_eq!(
            needs,
            [16_168, 24_008, 32_336, 48_016, 48_504, 64_672, 72_024]
        );
        // Ten 1,000-pair chunks of ten queries: what the 100 + 100 sessions
        // run.
        let runs: Vec<_> = query_runs(100, |_| 100).collect();
        assert_eq!(runs.len(), 10);
        for (dim, expected) in [(2, 7), (6, 5), (8, 4)] {
            assert_eq!(window(&backend, &runs, |_| 100, dim), expected, "dim {dim}");
        }
        Ok(())
    }
}
