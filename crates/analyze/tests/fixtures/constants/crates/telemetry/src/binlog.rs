// Fixture: the binary weblog constant mirrored into DESIGN.md.
pub const BINLOG_VERSION: u16 = 1;
