//! Wire-format conformance: the spec's worked hex examples pinned
//! against the encoder, the corruption matrix (truncation at every
//! byte, a bit flip at every position) mirroring the storage crate's
//! torn-tail/bit-rot tests, and a seeded structure-aware fuzz loop over
//! the payload decoder.

use drtopk_common::Cost;
use drtopk_core::{ShardCoverage, TruncateReason};
use drtopk_server::protocol::{
    decode_payload, encode_frame, read_frame, ErrorCode, Message, TopkReply, WireError,
};
use drtopk_server::HELLO;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

fn cost(evaluated: u64, pseudo_evaluated: u64) -> Cost {
    Cost {
        evaluated,
        pseudo_evaluated,
    }
}

fn coverage(shards: u16, answered: u64) -> Option<ShardCoverage> {
    Some(ShardCoverage::from_mask(shards, answered).unwrap())
}

fn hex(s: &str) -> Vec<u8> {
    s.split_whitespace()
        .map(|b| u8::from_str_radix(b, 16).expect("hex byte"))
        .collect()
}

/// PROTOCOL.md §7: the spec's worked examples are the encoder's output,
/// byte for byte. If this test fails, the *document* and the code have
/// diverged — fix whichever one is wrong, deliberately.
#[test]
fn spec_hex_examples_match_the_encoder() {
    // §7.1 QUERY
    let query = encode_frame(
        7,
        &Message::Query {
            deadline_ms: 250,
            max_cost: 0,
            k: 3,
            weights: vec![0.25, 0.75],
            scores: false,
        },
    );
    assert_eq!(
        query,
        hex("2b 00 00 00 3f 77 84 64 01 07 00 00 00 00 00 00 \
             00 fa 00 00 00 00 00 00 00 00 00 00 00 03 00 00 \
             00 02 00 00 00 00 00 00 00 d0 3f 00 00 00 00 00 \
             00 e8 3f"),
        "§7.1 QUERY example"
    );

    // §7.2 TOPK
    let topk = encode_frame(
        7,
        &Message::Topk(TopkReply::new(vec![12, 4, 9], cost(5, 1))),
    );
    assert_eq!(
        topk,
        hex("36 00 00 00 d8 f7 fb 20 81 07 00 00 00 00 00 00 \
             00 00 05 00 00 00 00 00 00 00 01 00 00 00 00 00 \
             00 00 03 00 00 00 0c 00 00 00 00 00 00 00 04 00 \
             00 00 00 00 00 00 09 00 00 00 00 00 00 00"),
        "§7.2 TOPK example"
    );

    // §7.5 TOPK with degraded coverage (flags bit 2: shard 2 of 4 down)
    let degraded = encode_frame(
        7,
        &Message::Topk(TopkReply {
            truncated: Some(TruncateReason::Deadline),
            coverage: coverage(4, 0b1011),
            ..TopkReply::new(vec![12, 4], cost(4, 0))
        }),
    );
    assert_eq!(
        degraded,
        hex("38 00 00 00 83 28 b8 5a 81 07 00 00 00 00 00 00 \
             00 05 04 00 00 00 00 00 00 00 00 00 00 00 00 00 \
             00 00 02 00 00 00 0c 00 00 00 00 00 00 00 04 00 \
             00 00 00 00 00 00 04 00 0b 00 00 00 00 00 00 00"),
        "§7.5 degraded TOPK example"
    );

    // §7.3 ERROR
    let error = encode_frame(
        9,
        &Message::Error {
            code: ErrorCode::Overloaded,
            message: "queue full".to_string(),
        },
    );
    assert_eq!(
        error,
        hex("14 00 00 00 b6 17 80 e7 7f 09 00 00 00 00 00 00 \
             00 02 71 75 65 75 65 20 66 75 6c 6c"),
        "§7.3 ERROR example"
    );

    // §7.4 hello
    assert_eq!(HELLO.to_vec(), hex("44 52 54 4f 50 4b 4e 01"));
}

fn sample_frames() -> Vec<Vec<u8>> {
    vec![
        encode_frame(
            7,
            &Message::Query {
                deadline_ms: 250,
                max_cost: 1_000_000,
                k: 3,
                weights: vec![0.25, 0.75],
                scores: false,
            },
        ),
        encode_frame(
            u64::MAX,
            &Message::Topk(TopkReply {
                truncated: Some(TruncateReason::CostExceeded),
                ..TopkReply::new(vec![0, u64::from(u32::MAX), 17], cost(123_456, 78))
            }),
        ),
        encode_frame(
            5,
            &Message::Topk(TopkReply {
                coverage: coverage(4, 0b1011),
                ..TopkReply::new(vec![2, 5], cost(9, 0))
            }),
        ),
        encode_frame(
            13,
            &Message::Query {
                deadline_ms: 40,
                max_cost: 900,
                k: 5,
                weights: vec![1.0, 0.5],
                scores: true,
            },
        ),
        encode_frame(
            14,
            &Message::Topk(TopkReply {
                scores: Some(vec![3.5, -0.25]),
                ..TopkReply::new(vec![2, 5], cost(9, 0))
            }),
        ),
        encode_frame(3, &Message::Ping),
        encode_frame(
            9,
            &Message::Error {
                code: ErrorCode::Overloaded,
                message: "queue full".to_string(),
            },
        ),
        encode_frame(11, &Message::MetricsReply("# HELP a b\na 1\n".to_string())),
    ]
}

/// §2.2 torn tail: a frame cut short at *every* byte boundary must fail
/// to decode — cleanly, never panicking, never yielding a message.
#[test]
fn truncation_at_every_byte_is_detected() {
    for frame in sample_frames() {
        for cut in 0..frame.len() {
            let torn = &frame[..cut];
            match read_frame(&mut &torn[..]) {
                Err(WireError::Io(_)) | Err(WireError::Corrupt(_)) => {}
                other => panic!("cut at {cut}/{} decoded: {other:?}", frame.len()),
            }
        }
        // The untouched frame still decodes (the matrix's control arm).
        read_frame(&mut &frame[..]).expect("intact frame decodes");
    }
}

/// §2.2 bit rot: flipping any single bit anywhere in the frame must be
/// detected — the length bound catches header rot, the CRC catches
/// payload rot. No flip may yield the original message.
#[test]
fn single_bit_flips_never_decode_to_the_original() {
    for frame in sample_frames() {
        let original = read_frame(&mut &frame[..]).expect("intact");
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut flipped = frame.clone();
                flipped[byte] ^= 1 << bit;
                match read_frame(&mut &flipped[..]) {
                    Err(_) => {}
                    Ok(decoded) => {
                        // A flip in the length prefix can only shrink the
                        // frame into an earlier-terminating one; it must
                        // never round-trip to the original message.
                        assert_ne!(
                            decoded, original,
                            "flip at byte {byte} bit {bit} went undetected"
                        );
                        panic!(
                            "flip at byte {byte} bit {bit} decoded to {decoded:?} (CRC must catch payload rot)"
                        );
                    }
                }
            }
        }
    }
}

/// Every type byte the decoder knows (§3, §4, §5).
const TYPE_BYTES: [u8; 10] = [0x01, 0x02, 0x03, 0x04, 0x05, 0x81, 0x82, 0x83, 0x84, 0x7f];

/// One payload shaped like a real message of a random type, with
/// random field values: counts, flags, masks and lengths that are
/// sometimes honest and sometimes not.
fn structured_payload(rng: &mut StdRng) -> Vec<u8> {
    let ty = if rng.gen_bool(0.05) {
        rng.gen::<u8>()
    } else {
        TYPE_BYTES[rng.gen_range(0..TYPE_BYTES.len())]
    };
    let mut p = vec![ty];
    p.extend_from_slice(&rng.gen::<u64>().to_le_bytes());
    match ty {
        0x01 | 0x05 => {
            p.extend_from_slice(&rng.gen::<u32>().to_le_bytes());
            p.extend_from_slice(&rng.gen::<u64>().to_le_bytes());
            p.extend_from_slice(&rng.gen::<u32>().to_le_bytes());
            let dims = rng.gen_range(0..6u16);
            p.extend_from_slice(&dims.to_le_bytes());
            for _ in 0..dims {
                p.extend_from_slice(&rng.gen::<u64>().to_le_bytes()); // any f64 bits
            }
        }
        0x81 => {
            let flags = if rng.gen_bool(0.9) {
                rng.gen_range(0..16u8)
            } else {
                rng.gen::<u8>()
            };
            p.push(flags);
            p.extend_from_slice(&rng.gen::<u64>().to_le_bytes());
            p.extend_from_slice(&rng.gen::<u64>().to_le_bytes());
            let n = rng.gen_range(0..6u32);
            let count = if rng.gen_bool(0.9) {
                n
            } else {
                rng.gen::<u32>()
            };
            p.extend_from_slice(&count.to_le_bytes());
            let lists = if flags & 0x08 != 0 { 2 } else { 1 };
            for _ in 0..n * lists {
                p.extend_from_slice(&rng.gen::<u64>().to_le_bytes());
            }
            if flags & 0x04 != 0 {
                let shards = rng.gen_range(0..70u16);
                let valid = if shards >= 64 {
                    u64::MAX
                } else {
                    (1u64 << shards) - 1
                };
                let answered = match rng.gen_range(0..3) {
                    0 => valid,
                    1 => rng.gen::<u64>() & valid,
                    _ => rng.gen::<u64>(),
                };
                p.extend_from_slice(&shards.to_le_bytes());
                p.extend_from_slice(&answered.to_le_bytes());
            }
        }
        0x7f | 0x82 => {
            if ty == 0x7f {
                p.push(rng.gen_range(0..8u8));
            }
            for _ in 0..rng.gen_range(0..12) {
                // Mostly ASCII; now and then a byte that breaks UTF-8.
                p.push(if rng.gen_bool(0.95) {
                    rng.gen_range(0x20..0x7fu8)
                } else {
                    rng.gen::<u8>()
                });
            }
        }
        0x02..=0x04 | 0x83 | 0x84 => {}
        _ => {
            for _ in 0..rng.gen_range(0..8) {
                p.push(rng.gen::<u8>());
            }
        }
    }
    p
}

/// Leaves `p` intact, or damages it one way: a single bit flip, a
/// truncation, or one extra byte.
fn damage(rng: &mut StdRng, mut p: Vec<u8>) -> Vec<u8> {
    match rng.gen_range(0..6) {
        0 => {
            let at = rng.gen_range(0..p.len());
            p[at] ^= 1 << rng.gen_range(0..8u32);
        }
        1 => p.truncate(rng.gen_range(0..p.len())),
        2 => p.push(rng.gen::<u8>()),
        _ => {}
    }
    p
}

/// ROADMAP item 5's seeded fuzz loop for the frame decoder: 200k
/// structure-aware payloads from a fixed seed. `decode_payload` must
/// never panic, and every payload it accepts must be the canonical
/// encoding of what it decoded — `encode_frame` reproduces it byte for
/// byte, so no two payloads decode to the same message.
#[test]
fn fuzzed_payloads_never_panic_and_accepted_ones_reencode() {
    const CASES: usize = 200_000;
    let mut rng = StdRng::seed_from_u64(0x00F0_2218);
    let mut accepted = 0usize;
    let mut accepted_types = BTreeSet::new();
    for case in 0..CASES {
        let payload = structured_payload(&mut rng);
        let payload = damage(&mut rng, payload);
        let decoded = std::panic::catch_unwind(|| decode_payload(&payload))
            .unwrap_or_else(|_| panic!("case {case}: decoder panicked on {payload:02x?}"));
        if let Ok((id, msg)) = decoded {
            let frame = encode_frame(id, &msg);
            assert_eq!(
                frame[8..],
                payload[..],
                "case {case}: {msg:?} re-encoded differently"
            );
            accepted += 1;
            accepted_types.insert(payload[0]);
        }
    }
    // The generator must reach deep into every message kind, not only
    // trip the first check.
    assert!(accepted > CASES / 4, "only {accepted} of {CASES} accepted");
    assert_eq!(accepted_types, BTreeSet::from(TYPE_BYTES));
}
