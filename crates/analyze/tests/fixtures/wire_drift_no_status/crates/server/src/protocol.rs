//! Wire-drift fixture: a status written as a byte literal, which the rule
//! cannot see.

pub fn ok_reply(out: &mut Vec<u8>) {
    out.extend_from_slice(b"{\"status\":\"ok\"}");
}
