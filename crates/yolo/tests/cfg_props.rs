//! `.cfg` text is untrusted input: whatever `parse_cfg` accepts, the shape
//! inference and the conv work list built on it must not panic. The
//! property mutates valid configs (the built-in tiny network and a
//! hand-written one with a route, a shortcut and a pool) line by line —
//! values swapped for zeros, huge and negative numbers, lines dropped,
//! duplicated or moved — and runs whatever still parses.

use proptest::prelude::*;
use yolo_pim::darknet::tiny_config;
use yolo_pim::{parse_cfg, to_cfg};

const SMALL: &str = "\
[net]
width=16
height=16
channels=3

[convolutional]
filters=4
size=3
stride=1
pad=1
activation=leaky

[maxpool]
size=2
stride=2

[convolutional]
filters=4
size=1
stride=1
activation=linear

[shortcut]
from=-1

[route]
layers=-1,-3

[upsample]
stride=2

[yolo]
mask=0,1
anchors=10,14,23,27,37,58
";

/// One edit to a config's lines.
#[derive(Debug, Clone)]
enum Mutation {
    /// Replace the value of the `key=value` line at this index.
    Value(usize, &'static str),
    /// Delete the line.
    Drop(usize),
    /// Repeat the line right after itself.
    Duplicate(usize),
    /// Move the line to another index.
    Move(usize, usize),
}

fn mutation() -> impl Strategy<Value = Mutation> {
    let value = prop_oneof![
        Just("0"),
        Just("1"),
        Just("2"),
        Just("3"),
        Just("7"),
        Just("64"),
        Just("4096"),
        Just("18446744073709551615"),
        Just("-1"),
        Just("-9"),
        Just("x"),
        Just(""),
    ];
    prop_oneof![
        (0usize..512, value).prop_map(|(i, v)| Mutation::Value(i, v)),
        (0usize..512, Just(())).prop_map(|(i, ())| Mutation::Value(i, "0")),
        (0usize..512).prop_map(Mutation::Drop),
        (0usize..512).prop_map(Mutation::Duplicate),
        (0usize..512, 0usize..512).prop_map(|(a, b)| Mutation::Move(a, b)),
    ]
}

fn mutate(text: &str, edits: &[Mutation]) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    for edit in edits {
        let n = lines.len();
        if n == 0 {
            break;
        }
        match *edit {
            Mutation::Value(i, v) => {
                let line = &mut lines[i % n];
                if let Some((key, _)) = line.split_once('=') {
                    *line = format!("{key}={v}");
                }
            }
            Mutation::Drop(i) => {
                lines.remove(i % n);
            }
            Mutation::Duplicate(i) => {
                let line = lines[i % n].clone();
                lines.insert(i % n, line);
            }
            Mutation::Move(a, b) => {
                let line = lines.remove(a % n);
                lines.insert(b % n, line);
            }
        }
    }
    lines.join("\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn whatever_parses_has_shapes(
        small in any::<bool>(),
        edits in prop::collection::vec(mutation(), 1..5),
    ) {
        let base = if small { SMALL.to_owned() } else { to_cfg(&tiny_config()) };
        let text = mutate(&base, &edits);
        if let Ok(net) = parse_cfg("mutated", &text) {
            prop_assert_eq!(net.shapes().len(), net.layers.len());
            let _ = net.conv_layers();
        }
    }
}

#[test]
fn unmutated_bases_parse() {
    for text in [SMALL.to_owned(), to_cfg(&tiny_config())] {
        let net = parse_cfg("base", &text).expect("base config parses");
        assert_eq!(net.shapes().len(), net.layers.len());
    }
}
