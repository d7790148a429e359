include Deployment.Make (Server)
