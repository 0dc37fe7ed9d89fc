//! Text interchange format for synthetic designs.
//!
//! A compact, line-based format (in the spirit of DEF bookshelf files)
//! so generated designs and placements can be dumped, inspected, diffed
//! and re-imported:
//!
//! ```text
//! rtedesign 1
//! name b_0000002a
//! family ITC99
//! clusters 7
//! cells 850
//! c <pins> <is_macro 0|1> <cluster>     # one per cell, ids implicit
//! nets 930
//! n <cell_id> <cell_id> ...             # one per net, ids implicit
//! grid 16 16                            # optional placement section
//! p <x> <y>                             # one per cell
//! macros 2
//! m <x0> <y0> <x1> <y1>                 # one per macro rect
//! end
//! ```

use std::io::{self, BufRead, Write};

use crate::netlist::{Cell, CellId, Netlist, Nets};
use crate::placement::{GridDims, MacroRect, Placement};
use crate::{EdaError, Family};

fn family_token(family: Family) -> &'static str {
    match family {
        Family::Iscas89 => "ISCAS89",
        Family::Itc99 => "ITC99",
        Family::Iwls05 => "IWLS05",
        Family::Ispd15 => "ISPD15",
    }
}

fn family_from_token(token: &str) -> Option<Family> {
    match token {
        "ISCAS89" => Some(Family::Iscas89),
        "ITC99" => Some(Family::Itc99),
        "IWLS05" => Some(Family::Iwls05),
        "ISPD15" => Some(Family::Ispd15),
        _ => None,
    }
}

/// Writes a design (and optionally its placement) in the interchange
/// format. Pass `&mut writer` to keep using the writer afterwards.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_design<W: Write>(
    mut writer: W,
    netlist: &Netlist,
    placement: Option<&Placement>,
) -> io::Result<()> {
    writeln!(writer, "rtedesign 1")?;
    writeln!(writer, "name {}", netlist.name)?;
    writeln!(writer, "family {}", family_token(netlist.family))?;
    writeln!(writer, "clusters {}", netlist.cluster_count)?;
    writeln!(writer, "cells {}", netlist.cells.len())?;
    for cell in &netlist.cells {
        writeln!(
            writer,
            "c {} {} {}",
            cell.pins,
            u8::from(cell.is_macro),
            cell.cluster
        )?;
    }
    writeln!(writer, "nets {}", netlist.nets.len())?;
    for net in netlist.nets.iter() {
        write!(writer, "n")?;
        for c in net.cells {
            write!(writer, " {}", c.0)?;
        }
        writeln!(writer)?;
    }
    if let Some(p) = placement {
        writeln!(writer, "grid {} {}", p.grid.width, p.grid.height)?;
        for i in 0..p.x.len() {
            writeln!(writer, "p {} {}", p.x[i], p.y[i])?;
        }
        writeln!(writer, "macros {}", p.macro_rects.len())?;
        for r in &p.macro_rects {
            writeln!(writer, "m {} {} {} {}", r.x0, r.y0, r.x1, r.y1)?;
        }
    }
    writeln!(writer, "end")?;
    Ok(())
}

struct LineReader<R: BufRead> {
    inner: R,
    line_no: usize,
    buf: String,
}

impl<R: BufRead> LineReader<R> {
    fn next_line(&mut self) -> Result<Option<&str>, EdaError> {
        loop {
            self.buf.clear();
            let n = self
                .inner
                .read_line(&mut self.buf)
                .map_err(|e| parse_err(self.line_no, &format!("i/o error: {e}")))?;
            self.line_no += 1;
            if n == 0 {
                return Ok(None);
            }
            // Strip trailing comments and whitespace; skip blank lines.
            let line = match self.buf.find('#') {
                Some(idx) => &self.buf[..idx],
                None => &self.buf,
            }
            .trim();
            if !line.is_empty() {
                // Work around borrow rules: remember trimmed range.
                let start = line.as_ptr() as usize - self.buf.as_ptr() as usize;
                let end = start + line.len();
                return Ok(Some(&self.buf[start..end]));
            }
        }
    }
}

fn parse_err(line: usize, reason: &str) -> EdaError {
    EdaError::InvalidConfig {
        reason: format!("interchange parse error at line {line}: {reason}"),
    }
}

fn expect_keyword<'a>(
    line: Option<&'a str>,
    keyword: &str,
    line_no: usize,
) -> Result<&'a str, EdaError> {
    let line = line.ok_or_else(|| parse_err(line_no, &format!("expected `{keyword}`, got EOF")))?;
    line.strip_prefix(keyword)
        .map(str::trim)
        .ok_or_else(|| parse_err(line_no, &format!("expected `{keyword}`, got `{line}`")))
}

fn parse_num<T: std::str::FromStr>(token: &str, line_no: usize) -> Result<T, EdaError> {
    token
        .parse::<T>()
        .map_err(|_| parse_err(line_no, &format!("bad number `{token}`")))
}

/// Reads a design written by [`write_design`]. Pass `&mut reader` to keep
/// using the reader afterwards.
///
/// # Errors
///
/// Returns [`EdaError::InvalidConfig`] with a line-numbered message for
/// any structural violation.
pub fn read_design<R: BufRead>(reader: R) -> Result<(Netlist, Option<Placement>), EdaError> {
    let mut r = LineReader {
        inner: reader,
        line_no: 0,
        buf: String::new(),
    };
    let header = r.next_line()?.map(str::to_owned);
    if header.as_deref() != Some("rtedesign 1") {
        return Err(parse_err(r.line_no, "missing `rtedesign 1` header"));
    }
    let name_line = r.next_line()?.map(str::to_owned);
    let name = expect_keyword(name_line.as_deref(), "name", r.line_no)?.to_owned();
    let fam_line = r.next_line()?.map(str::to_owned);
    let fam_token = expect_keyword(fam_line.as_deref(), "family", r.line_no)?.to_owned();
    let family = family_from_token(&fam_token)
        .ok_or_else(|| parse_err(r.line_no, &format!("unknown family `{fam_token}`")))?;
    let clusters_line = r.next_line()?.map(str::to_owned);
    let cluster_count: usize = parse_num(
        expect_keyword(clusters_line.as_deref(), "clusters", r.line_no)?,
        r.line_no,
    )?;
    let cells_line = r.next_line()?.map(str::to_owned);
    let n_cells: usize = parse_num(
        expect_keyword(cells_line.as_deref(), "cells", r.line_no)?,
        r.line_no,
    )?;
    if n_cells > 10_000_000 {
        return Err(parse_err(r.line_no, "implausible cell count"));
    }
    let mut cells = Vec::with_capacity(n_cells);
    for i in 0..n_cells {
        let line = r.next_line()?.map(str::to_owned);
        let body = expect_keyword(line.as_deref(), "c", r.line_no)?.to_owned();
        let mut it = body.split_whitespace();
        let pins: u8 = parse_num(it.next().unwrap_or(""), r.line_no)?;
        let is_macro: u8 = parse_num(it.next().unwrap_or(""), r.line_no)?;
        let cluster: u16 = parse_num(it.next().unwrap_or(""), r.line_no)?;
        cells.push(Cell {
            id: CellId(i as u32),
            pins,
            is_macro: is_macro != 0,
            cluster,
        });
    }
    let nets_line = r.next_line()?.map(str::to_owned);
    let n_nets: usize = parse_num(
        expect_keyword(nets_line.as_deref(), "nets", r.line_no)?,
        r.line_no,
    )?;
    let mut nets = Nets::new();
    let mut net_cells = Vec::new();
    for _ in 0..n_nets {
        let line = r.next_line()?.map(str::to_owned);
        let body = expect_keyword(line.as_deref(), "n", r.line_no)?.to_owned();
        net_cells.clear();
        for token in body.split_whitespace() {
            let id: u32 = parse_num(token, r.line_no)?;
            if id as usize >= n_cells {
                return Err(parse_err(r.line_no, &format!("cell id {id} out of range")));
            }
            net_cells.push(CellId(id));
        }
        if net_cells.len() < 2 {
            return Err(parse_err(r.line_no, "net with fewer than two pins"));
        }
        nets.push(&net_cells);
    }
    let netlist = Netlist {
        name,
        family,
        cells,
        nets,
        cluster_count,
    };

    // Optional placement section, then `end`.
    let line = r.next_line()?.map(str::to_owned);
    let line = line.ok_or_else(|| parse_err(r.line_no, "expected `grid` or `end`, got EOF"))?;
    if line == "end" {
        return Ok((netlist, None));
    }
    let grid_body = expect_keyword(Some(line.as_str()), "grid", r.line_no)?.to_owned();
    let mut it = grid_body.split_whitespace();
    let width: usize = parse_num(it.next().unwrap_or(""), r.line_no)?;
    let height: usize = parse_num(it.next().unwrap_or(""), r.line_no)?;
    let mut xs = Vec::with_capacity(n_cells);
    let mut ys = Vec::with_capacity(n_cells);
    for _ in 0..n_cells {
        let line = r.next_line()?.map(str::to_owned);
        let body = expect_keyword(line.as_deref(), "p", r.line_no)?.to_owned();
        let mut it = body.split_whitespace();
        let x: u16 = parse_num(it.next().unwrap_or(""), r.line_no)?;
        let y: u16 = parse_num(it.next().unwrap_or(""), r.line_no)?;
        if x as usize >= width || y as usize >= height {
            return Err(parse_err(r.line_no, "cell placed off-grid"));
        }
        xs.push(x);
        ys.push(y);
    }
    let macros_line = r.next_line()?.map(str::to_owned);
    let n_macros: usize = parse_num(
        expect_keyword(macros_line.as_deref(), "macros", r.line_no)?,
        r.line_no,
    )?;
    let mut macro_rects = Vec::with_capacity(n_macros);
    for _ in 0..n_macros {
        let line = r.next_line()?.map(str::to_owned);
        let body = expect_keyword(line.as_deref(), "m", r.line_no)?.to_owned();
        let mut it = body.split_whitespace();
        let x0: usize = parse_num(it.next().unwrap_or(""), r.line_no)?;
        let y0: usize = parse_num(it.next().unwrap_or(""), r.line_no)?;
        let x1: usize = parse_num(it.next().unwrap_or(""), r.line_no)?;
        let y1: usize = parse_num(it.next().unwrap_or(""), r.line_no)?;
        if x1 < x0 || y1 < y0 || x1 >= width || y1 >= height {
            return Err(parse_err(r.line_no, "malformed macro rect"));
        }
        macro_rects.push(MacroRect { x0, y0, x1, y1 });
    }
    let end_line = r.next_line()?.map(str::to_owned);
    if end_line.as_deref() != Some("end") {
        return Err(parse_err(r.line_no, "expected `end`"));
    }
    Ok((
        netlist,
        Some(Placement {
            grid: GridDims::new(width, height),
            x: xs,
            y: ys,
            macro_rects,
        }),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::generate_netlist;
    use crate::placement::{place, PlacementConfig};

    #[test]
    fn netlist_round_trip() {
        let nl = generate_netlist(Family::Itc99, 5).unwrap();
        let mut buf = Vec::new();
        write_design(&mut buf, &nl, None).unwrap();
        let (back, placement) = read_design(buf.as_slice()).unwrap();
        assert_eq!(back, nl);
        assert!(placement.is_none());
    }

    #[test]
    fn placed_round_trip() {
        let nl = generate_netlist(Family::Ispd15, 6).unwrap();
        let pl = place(&nl, &PlacementConfig::new(16, 16, 2)).unwrap();
        let mut buf = Vec::new();
        write_design(&mut buf, &nl, Some(&pl)).unwrap();
        let (back_nl, back_pl) = read_design(buf.as_slice()).unwrap();
        assert_eq!(back_nl, nl);
        assert_eq!(back_pl.unwrap(), pl);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let nl = generate_netlist(Family::Iscas89, 7).unwrap();
        let mut buf = Vec::new();
        write_design(&mut buf, &nl, None).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let commented: String = text
            .lines()
            .map(|l| format!("{l} # trailing comment\n\n"))
            .collect();
        let (back, _) = read_design(commented.as_bytes()).unwrap();
        assert_eq!(back, nl);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read_design(&b"bogus 1\n"[..]).is_err());
    }

    #[test]
    fn rejects_out_of_range_net_pin() {
        let text = "rtedesign 1\nname x\nfamily ITC99\nclusters 1\ncells 2\n\
                    c 2 0 0\nc 2 0 0\nnets 1\nn 0 5\nend\n";
        let err = read_design(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn rejects_off_grid_placement() {
        let text = "rtedesign 1\nname x\nfamily ITC99\nclusters 1\ncells 2\n\
                    c 2 0 0\nc 2 0 0\nnets 1\nn 0 1\ngrid 4 4\np 0 0\np 9 0\nmacros 0\nend\n";
        let err = read_design(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("off-grid"));
    }

    #[test]
    fn rejects_truncated_file() {
        let nl = generate_netlist(Family::Iwls05, 8).unwrap();
        let mut buf = Vec::new();
        write_design(&mut buf, &nl, None).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(read_design(buf.as_slice()).is_err());
    }

    #[test]
    fn error_messages_carry_line_numbers() {
        let text = "rtedesign 1\nname x\nfamily NOPE\n";
        let err = read_design(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
    }
}
