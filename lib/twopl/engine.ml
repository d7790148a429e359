include Calvin.Deployment.Make (Server)
