//! Wire-drift fixture: one documented status, one undocumented status.

pub fn ok_response() -> Json {
    Json::Object(vec![("status".into(), Json::Str("ok".into()))])
}

pub fn teapot_response() -> Json {
    Json::Object(vec![("status".into(), Json::Str("teapot".into()))])
}
