//! Lineage-plane instrumentation counters.
//!
//! The perf baseline (`crates/bench/src/bin/perf_baseline.rs`) needs an
//! allocation proxy that is deterministic across same-seed runs — wall-clock
//! and real allocator telemetry are not. These thread-local counters track
//! the events that correspond one-to-one with heap work in the lineage
//! plane: copy-on-write dep-vector materializations and wire (re-)encodes
//! versus cache hits. They are plain `Cell<u64>` bumps, cheap enough to stay
//! enabled unconditionally.

/// Declares one set of thread-local `u64` counters: the snapshot struct,
/// `snapshot()`, `reset()` and a `pub(crate)` bump function per counter
/// that names one (`sum` adds its argument, `max` keeps the largest). The
/// cells are `const`-initialised, so a bump is a plain TLS add.
#[doc(hidden)]
#[macro_export]
macro_rules! counters {
    (
        $(#[$struct_meta:meta])*
        pub struct $Stats:ident {
            $( $(#[$field_meta:meta])* $kind:ident $field:ident $(=> $bump:ident)?, )*
        }
    ) => {
        #[allow(non_upper_case_globals)]
        mod cells {
            thread_local! {
                $( pub(super) static $field: ::std::cell::Cell<u64> =
                    const { ::std::cell::Cell::new(0) }; )*
            }
        }

        $(#[$struct_meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct $Stats {
            $( $(#[$field_meta])* pub $field: u64, )*
        }

        /// Reads the counters.
        pub fn snapshot() -> $Stats {
            $Stats { $( $field: cells::$field.with(::std::cell::Cell::get), )* }
        }

        /// Zeroes the counters (start of a measured workload).
        pub fn reset() {
            $( cells::$field.with(|c| c.set(0)); )*
        }

        $($(
            pub(crate) fn $bump(n: u64) {
                cells::$field.with(|c| c.set($crate::counters!(@$kind c.get(), n)));
            }
        )?)*
    };
    (@sum $current:expr, $n:expr) => { $current + $n };
    (@max $current:expr, $n:expr) => { $current.max($n) };
}

counters! {
    /// A snapshot of the lineage-plane counters on this thread.
    pub struct LineageStats {
        /// Times a shared dep vector was deep-copied before mutation (the
        /// copy-on-write slow path — one `Vec<WriteId>` allocation each).
        sum cow_dep_clones => count_cow_dep_clone,
        /// Times the v1 wire encoding was actually produced (one buffer
        /// allocation each).
        sum wire_encodes => count_wire_encode,
        /// Times `wire_bytes` was served from the cache (no allocation).
        sum wire_cache_hits => count_wire_cache_hit,
        /// Times the base64 baggage form was actually encoded.
        sum b64_encodes => count_b64_encode,
        /// Times the base64 baggage form was served from the cache.
        sum b64_cache_hits => count_b64_cache_hit,
        /// Always 0: the v2 frame it counted is deleted. Kept because
        /// `crates/benchmark` reads it; goes when the benchmark next changes.
        sum frame_encodes,
        /// Always 0, kept for the same reason as `frame_encodes`.
        sum frame_cache_hits,
        /// Decodes whose input was byte-for-byte canonical, letting the decoder
        /// adopt the input as the cached wire form (re-serialization is free).
        sum canonical_decodes => count_canonical_decode,
        /// Key buffers allocated by decodes: one per decoded lineage that has
        /// dependencies, whatever their number (the identifiers hold ranges
        /// of it).
        sum key_buffers => count_key_buffer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        reset();
        count_cow_dep_clone(1);
        count_wire_encode(1);
        count_wire_encode(1);
        count_wire_cache_hit(1);
        let s = snapshot();
        assert_eq!(s.cow_dep_clones, 1);
        assert_eq!(s.wire_encodes, 2);
        assert_eq!(s.wire_cache_hits, 1);
        reset();
        assert_eq!(snapshot(), LineageStats::default());
    }
}
