//! Web applications running on compute nodes (Jupyter, TensorBoard, …).
//!
//! An app is a listening socket on the fabric plus served content keyed by
//! its endpoint. Binding the listener through the fabric means the UBF rules
//! on the compute node govern who can reach it — whether the request comes
//! through the portal or directly from another node.

use eus_simnet::{ConnectError, Fabric, PeerInfo, Port, Proto, SocketAddr};
use eus_simos::{Credentials, NodeId, Uid};
use std::collections::BTreeMap;

/// One running web app.
#[derive(Debug, Clone)]
pub struct WebApp {
    /// Where it listens.
    pub endpoint: SocketAddr,
    /// The identity of the serving process (its egid is what the UBF group
    /// opt-in consults).
    pub server: PeerInfo,
    /// The page it serves (stand-in for the Jupyter UI).
    pub content: String,
}

/// Registry of app content by endpoint (the fabric carries connections; this
/// carries the "HTTP" layer).
#[derive(Debug, Default)]
pub struct WebAppRegistry {
    apps: BTreeMap<SocketAddr, WebApp>,
}

impl WebAppRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Launch an app: binds the listener on the fabric and registers content.
    pub fn launch(
        &mut self,
        fabric: &mut Fabric,
        node: NodeId,
        server_cred: &Credentials,
        port: Port,
        content: impl Into<String>,
    ) -> Result<SocketAddr, ConnectError> {
        let server = PeerInfo::from_cred(server_cred);
        fabric.listen(node, Proto::Tcp, port, server)?;
        let endpoint = SocketAddr::new(node, port);
        self.apps.insert(
            endpoint,
            WebApp {
                endpoint,
                server,
                content: content.into(),
            },
        );
        Ok(endpoint)
    }

    /// The app at an endpoint.
    pub fn get(&self, endpoint: SocketAddr) -> Option<&WebApp> {
        self.apps.get(&endpoint)
    }

    /// Stop an app (job ended).
    pub fn stop(&mut self, fabric: &mut Fabric, endpoint: SocketAddr) -> bool {
        if self.apps.remove(&endpoint).is_some() {
            if let Some(h) = fabric.host_mut(endpoint.host) {
                h.sockets.close(Proto::Tcp, endpoint.port);
            }
            true
        } else {
            false
        }
    }

    /// The endpoints of the apps `uid` serves on `node`.
    pub fn endpoints_of(&self, node: NodeId, uid: Uid) -> Vec<SocketAddr> {
        let on_node = SocketAddr::new(node, 0)..=SocketAddr::new(node, Port::MAX);
        let apps = self.apps.range(on_node).map(|(_, a)| a);
        apps.filter(|a| a.server.uid == uid)
            .map(|a| a.endpoint)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eus_simos::Gid;

    #[test]
    fn launch_registers_listener_and_content() {
        let mut f = Fabric::new();
        f.add_host(NodeId(1));
        f.add_host(NodeId(7));
        let mut apps = WebAppRegistry::new();
        let cred = Credentials::new(Uid(100), Gid(100));
        let ep = apps
            .launch(&mut f, NodeId(7), &cred, 8888, "jupyter home")
            .unwrap();
        assert_eq!(apps.get(ep).unwrap().content, "jupyter home");
        assert!(f
            .host(NodeId(7))
            .unwrap()
            .sockets
            .listener(Proto::Tcp, 8888)
            .is_some());

        assert!(apps.stop(&mut f, ep));
        assert!(apps.get(ep).is_none());
        assert!(f
            .host(NodeId(7))
            .unwrap()
            .sockets
            .listener(Proto::Tcp, 8888)
            .is_none());
        assert!(!apps.stop(&mut f, ep));
    }

    #[test]
    fn port_conflict_surfaces() {
        let mut f = Fabric::new();
        f.add_host(NodeId(1));
        let mut apps = WebAppRegistry::new();
        let cred = Credentials::new(Uid(100), Gid(100));
        apps.launch(&mut f, NodeId(1), &cred, 8888, "a").unwrap();
        let err = apps
            .launch(&mut f, NodeId(1), &cred, 8888, "b")
            .unwrap_err();
        assert!(matches!(err, ConnectError::Bind(_)));
    }
}
