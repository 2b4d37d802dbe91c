//! The line counter behind `report --loc`: every line outside
//! `#[cfg(test)]` items (attribute through closing brace or `;`), blank
//! lines and comments included. Braces count on code only, not inside
//! strings, raw strings, char literals or comments.

use std::path::Path;

const TEST_ATTR: &[u8] = b"#[cfg(test)]";

/// Lines of `src` outside every `#[cfg(test)]` item.
#[must_use]
pub fn non_test_lines(src: &str) -> usize {
    let b = src.as_bytes();
    let (mut line, mut test_lines, mut i) = (0, 0, 0);
    // The test item being skipped: the line of its attribute and its brace
    // depth.
    let mut item: Option<(usize, usize)> = None;
    while i < b.len() {
        let rest = &b[i..];
        // Comments, strings and char literals: no brace in them counts.
        let skip = match rest {
            [b'/', b'/', ..] => rest.iter().position(|&c| c == b'\n').unwrap_or(rest.len()),
            [b'/', b'*', ..] => block_comment_len(rest),
            [b'"', ..] => string_len(rest),
            [b'\'', ..] => char_literal_len(rest).unwrap_or(1),
            _ => raw_string_len(b, i).unwrap_or(0),
        };
        if skip > 0 {
            line += rest[..skip].iter().filter(|&&c| c == b'\n').count();
            i += skip;
            continue;
        }
        match (rest[0], &mut item) {
            (b'\n', _) => line += 1,
            (b'#', None) if rest.starts_with(TEST_ATTR) => item = Some((line, 0)),
            (b'{', Some((_, depth))) => *depth += 1,
            (c @ (b'}' | b';'), Some((start, depth))) => {
                *depth -= usize::from(c == b'}' && *depth > 0);
                if *depth == 0 {
                    test_lines += line - *start + 1;
                    item = None;
                }
            }
            _ => {}
        }
        i += 1;
    }
    src.lines().count() - test_lines
}

/// Length of the (possibly nested) block comment `b` starts with.
fn block_comment_len(b: &[u8]) -> usize {
    let (mut depth, mut i) = (0, 0);
    while i < b.len() {
        if b[i..].starts_with(b"/*") {
            depth += 1;
        } else if b[i..].starts_with(b"*/") {
            depth -= 1;
            if depth == 0 {
                return i + 2;
            }
        } else {
            i += 1;
            continue;
        }
        i += 2;
    }
    b.len()
}

/// Length of the string literal `b` starts with, quotes included.
fn string_len(b: &[u8]) -> usize {
    let mut i = 1;
    while i < b.len() && b[i] != b'"' {
        i += if b[i] == b'\\' { 2 } else { 1 };
    }
    (i + 1).min(b.len())
}

/// Length of the char literal `b` starts with (`'x'`, `'\n'`, `'\''`,
/// `'\u{1F600}'`, a multi-byte char), or `None` for a lifetime or label.
fn char_literal_len(b: &[u8]) -> Option<usize> {
    if b.get(1) == Some(&b'\\') {
        return Some(b.get(3..)?.iter().position(|&c| c == b'\'')? + 4);
    }
    let width = match *b.get(1)? {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    };
    (b.get(1 + width) == Some(&b'\'')).then_some(width + 2)
}

/// Length of the raw string (`r"…"`, `r#"…"#`, …) starting at `b[at]`,
/// or `None` when `b[at]` starts none (an identifier ending in `r`).
fn raw_string_len(b: &[u8], at: usize) -> Option<usize> {
    let ident = |i: usize| b[i].is_ascii_alphanumeric() || b[i] == b'_';
    let before = match at.checked_sub(1) {
        Some(p) if b[p] == b'b' => p.checked_sub(1),
        p => p,
    };
    let rest = b[at..].strip_prefix(b"r").filter(|_| !before.is_some_and(ident))?;
    let hashes = rest.iter().take_while(|&&c| c == b'#').count();
    let body = rest[hashes..].strip_prefix(b"\"")?;
    let close = [&b"\""[..], &rest[..hashes]].concat();
    let end =
        body.windows(close.len()).position(|w| w == close).map_or(body.len(), |e| e + close.len());
    Some(1 + hashes + 1 + end)
}

/// Every `.rs` file under `crates/*/src` of the workspace at `root`, as
/// (path relative to `root`, non-test lines), sorted by path.
///
/// # Errors
/// A directory or file that cannot be read.
pub fn count_crates(root: &Path) -> std::io::Result<Vec<(String, usize)>> {
    let mut dirs = Vec::new();
    for krate in std::fs::read_dir(root.join("crates"))? {
        let src = krate?.path().join("src");
        if src.is_dir() {
            dirs.push(src);
        }
    }
    let mut counts = Vec::new();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let lines = non_test_lines(&std::fs::read_to_string(&path)?);
                counts
                    .push((path.strip_prefix(root).unwrap_or(&path).display().to_string(), lines));
            }
        }
    }
    counts.sort();
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::non_test_lines;

    /// Braces inside a string, a char literal and a comment of a test
    /// module do not end it early, and the code after it counts.
    #[test]
    fn a_test_module_ends_at_its_own_closing_brace() {
        let src = "fn kept() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   \x20   const S: &str = \"}\";\n\
                   \x20   const C: char = '{';\n\
                   \x20   // }\n\
                   \x20   const R: &str = r#\"}\"#;\n\
                   \x20   fn f<'a>(x: &'a str) -> &'a str { x }\n\
                   }\n\
                   fn also_kept() {\n\
                   }\n";
        assert_eq!(non_test_lines(src), 3);
    }

    #[test]
    fn a_test_item_without_braces_ends_at_its_semicolon() {
        let src =
            "#[cfg(test)]\nmod tests;\n#[cfg(test)]\n#[allow(unused)]\nuse std::fmt;\nfn f() {}\n";
        assert_eq!(non_test_lines(src), 1);
    }

    #[test]
    fn the_attribute_in_a_string_or_comment_is_not_an_item() {
        let src = "// #[cfg(test)]\nconst A: &str = \"#[cfg(test)]\";\nfn f() {}\n";
        assert_eq!(non_test_lines(src), 3);
    }
}
