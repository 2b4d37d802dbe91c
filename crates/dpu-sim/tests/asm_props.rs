//! Assembly text is untrusted input: whatever `assemble` is given, it
//! returns a program or `Error::Asm`, never a panic. The property mutates
//! valid sources line by line — operands and mnemonics swapped for
//! malformed, huge, doubly-signed and mistyped ones, labels broken, lines
//! dropped, duplicated, moved or cut short — and assembles the result.

use dpu_sim::asm::assemble;
use dpu_sim::Error;
use proptest::prelude::*;

const SUM: &str = "\
; sum the first n integers
        movi r1, 10
        movi r2, 0
loop:   add  r2, r2, r1
        addi r1, r1, -1
        bne  r1, r0, loop
        sw   r0, 0, r2
        halt
";

const KERNEL: &str = "\
        me r1
        lsli r2, r1, 8
        movi r3, 0x40
        mram.read r2, r2, r3
        lw r4, r2, 4
        lb r5, r2, -1
        popcount r6, r4
        mul8 r7, r6, r5
        call __mulsi3.short r8, r7, r3
        call __divsi3 r9, r8, r3
        mutex.lock 3
        sh r0, 0x80, r9
        mutex.unlock 3
        barrier
        bltu r1, r3, done
        jal r31, leaf
done:   perf.config
        perf.read r10
        trace r10
        mram.write r2, r2, r3
        halt
leaf:   asri r11, r10, 31
        jr r31
";

/// Replacement operands and mnemonics: valid ones, out-of-range ones, and
/// the malformed shapes an immediate parser trips over.
const TOKENS: &[&str] = &[
    "r0",
    "r31",
    "r32",
    "r99",
    "r",
    "r-1",
    "0",
    "-1",
    "0x",
    "-0x",
    "0x+ff",
    "0x-1",
    "--5",
    "-+5",
    "+5",
    "-",
    "--9223372036854775808",
    "-9223372036854775808",
    "9223372036854775807",
    "18446744073709551615",
    "0xffffffff",
    "0x100000000",
    "-2147483649",
    "loop",
    "done:",
    ":",
    "é",
    "",
    "movi",
    "call",
    "__mulsi3",
    "__nope",
    "mutex.lock",
    "lsli",
    "jmp",
];

/// One edit to a source's lines.
#[derive(Debug, Clone)]
enum Mutation {
    /// Replace operand `op` (modulo the line's operand count) of the line.
    Operand(usize, usize, &'static str),
    /// Replace the line's mnemonic.
    Mnemonic(usize, &'static str),
    /// Cut the line after this many characters.
    Truncate(usize, usize),
    /// Delete the line.
    Drop(usize),
    /// Repeat the line right after itself.
    Duplicate(usize),
    /// Move the line to another index.
    Move(usize, usize),
}

fn mutation() -> impl Strategy<Value = Mutation> {
    let token = (0..TOKENS.len()).prop_map(|i| TOKENS[i]);
    prop_oneof![
        (0usize..64, 0usize..4, token.clone()).prop_map(|(i, op, t)| Mutation::Operand(i, op, t)),
        (0usize..64, 0usize..4, token.clone()).prop_map(|(i, op, t)| Mutation::Operand(i, op, t)),
        (0usize..64, token).prop_map(|(i, t)| Mutation::Mnemonic(i, t)),
        (0usize..64, 0usize..40).prop_map(|(i, n)| Mutation::Truncate(i, n)),
        (0usize..64).prop_map(Mutation::Drop),
        (0usize..64).prop_map(Mutation::Duplicate),
        (0usize..64, 0usize..64).prop_map(|(a, b)| Mutation::Move(a, b)),
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
            Mutation::Operand(i, op, t) => {
                let line = &mut lines[i % n];
                let mut pieces: Vec<String> = line.split(',').map(str::to_owned).collect();
                let k = op % pieces.len();
                let piece = &mut pieces[k];
                // The first piece holds the mnemonic too: replace its last
                // word only.
                let keep = piece.trim_end().rfind(char::is_whitespace).map_or(0, |w| w + 1);
                piece.truncate(keep);
                piece.push_str(t);
                *line = pieces.join(",");
            }
            Mutation::Mnemonic(i, t) => {
                let line = &mut lines[i % n];
                let trimmed = line.trim_start();
                let indent = line.len() - trimmed.len();
                let end = trimmed.find(char::is_whitespace).unwrap_or(trimmed.len());
                line.replace_range(indent..indent + end, t);
            }
            Mutation::Truncate(i, keep) => {
                let line = &mut lines[i % n];
                *line = line.chars().take(keep).collect();
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
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn assemble_never_panics_on_mutated_sources(
        kernel in any::<bool>(),
        edits in prop::collection::vec(mutation(), 1..6),
    ) {
        let text = mutate(if kernel { KERNEL } else { SUM }, &edits);
        let outcome = assemble(&text);
        prop_assert!(matches!(outcome, Ok(_) | Err(Error::Asm { .. })), "{text}: {outcome:?}");
    }
}

#[test]
fn unmutated_sources_assemble() {
    assert_eq!(assemble(SUM).expect("sum assembles").instrs.len(), 7);
    assert_eq!(assemble(KERNEL).expect("kernel assembles").instrs.len(), 23);
}

#[test]
fn an_immediate_takes_one_leading_sign_at_most() {
    for imm in ["--9223372036854775808", "--5", "-+5", "+5", "0x+ff", "0x-1", "-0x-1", "-", "0x"] {
        let outcome = assemble(&format!("movi r1, {imm}"));
        assert!(matches!(outcome, Err(Error::Asm { line: 1, .. })), "`{imm}`: {outcome:?}");
    }
    let p = assemble("movi r1, -0x10\nmovi r2, -2147483648\nmovi r3, 0xffffffff\n").unwrap();
    assert_eq!(p.instrs.len(), 3);
}
